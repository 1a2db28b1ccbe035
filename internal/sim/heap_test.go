package sim

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeHeapOrdering(t *testing.T) {
	h := &TimeHeap{}
	in := []float64{5, 3, 8, 1, 9, 2, 7}
	for _, v := range in {
		h.Push(v)
	}
	sorted := append([]float64(nil), in...)
	sort.Float64s(sorted)
	for _, want := range sorted {
		if got := h.PopMin(); got != want {
			t.Fatalf("PopMin = %v, want %v", got, want)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("heap not empty after draining: %d", h.Len())
	}
}

func TestTimeHeapReplaceMin(t *testing.T) {
	h := NewTimeHeap(4)
	// All four servers free at t=0; occupy earliest until t=10, 20, 5, 1.
	for _, busy := range []float64{10, 20, 5, 1} {
		h.ReplaceMin(busy)
	}
	if got := h.Min(); got != 1 {
		t.Fatalf("Min = %v, want 1", got)
	}
	h.ReplaceMin(100)
	if got := h.Min(); got != 5 {
		t.Fatalf("Min after replace = %v, want 5", got)
	}
}

func TestTimeHeapPropertySorted(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		h := &TimeHeap{}
		for _, v := range vals {
			h.Push(v)
		}
		prev := h.PopMin()
		for h.Len() > 0 {
			cur := h.PopMin()
			if cur < prev && !(cur != cur) { // tolerate NaN from fuzzing
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewTimeHeapAllFree(t *testing.T) {
	h := NewTimeHeap(8)
	if h.Len() != 8 {
		t.Fatalf("Len = %d, want 8", h.Len())
	}
	if h.Min() != 0 {
		t.Fatalf("Min = %v, want 0", h.Min())
	}
}

// BenchmarkTimeHeap times the core model's queue pattern per op at
// line-fill-buffer (16) and store-buffer (112) depths: pop every entry
// done by now, pop the earliest when the queue is full, then push a
// completion 50–550 ns out, with now advancing 1–8 ns per op.
func BenchmarkTimeHeap(b *testing.B) {
	r := NewRand(1)
	lat := make([]float64, 1<<12)
	for i := range lat {
		lat[i] = 50 + float64(r.Uint64n(500))
	}
	for _, depth := range []int{16, 112} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			h := NewTimeHeap(depth) // storage for a full queue
			h.Reset()
			var now float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += float64(1 + i&7)
				for h.Len() > 0 && h.Min() <= now {
					h.PopMin()
				}
				t := now
				if h.Len() >= depth {
					t = h.PopMin()
				}
				h.Push(t + lat[i&(len(lat)-1)])
			}
		})
	}
}
