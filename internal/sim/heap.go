package sim

// TimeHeap is a tiny min-heap of float64 timestamps used to model pools
// of parallel servers (DRAM banks, thread wakeups). The zero value is an
// empty heap.
type TimeHeap struct {
	ts []float64
}

// NewTimeHeap returns a heap pre-filled with n zero timestamps, i.e. n
// servers that are all free at time 0.
func NewTimeHeap(n int) *TimeHeap {
	return &TimeHeap{ts: make([]float64, n)}
}

// Reset empties the heap, keeping its storage.
func (h *TimeHeap) Reset() { h.ts = h.ts[:0] }

// Len returns the number of timestamps in the heap.
func (h *TimeHeap) Len() int { return len(h.ts) }

// Min returns the smallest timestamp. It panics on an empty heap.
func (h *TimeHeap) Min() float64 { return h.ts[0] }

// Push inserts a timestamp.
func (h *TimeHeap) Push(t float64) {
	h.ts = append(h.ts, t)
	i := len(h.ts) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.ts[parent] <= h.ts[i] {
			break
		}
		h.ts[parent], h.ts[i] = h.ts[i], h.ts[parent]
		i = parent
	}
}

// PopMin removes and returns the smallest timestamp.
func (h *TimeHeap) PopMin() float64 {
	min := h.ts[0]
	last := len(h.ts) - 1
	h.ts[0] = h.ts[last]
	h.ts = h.ts[:last]
	h.siftDown(0)
	return min
}

// ReplaceMin replaces the smallest timestamp with t and restores heap
// order. This is the common "take earliest-free server, occupy it until
// t" operation and avoids a pop+push pair.
func (h *TimeHeap) ReplaceMin(t float64) {
	h.ts[0] = t
	h.siftDown(0)
}

func (h *TimeHeap) siftDown(i int) {
	n := len(h.ts)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.ts[l] < h.ts[smallest] {
			smallest = l
		}
		if r < n && h.ts[r] < h.ts[smallest] {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.ts[i], h.ts[smallest] = h.ts[smallest], h.ts[i]
		i = smallest
	}
}
