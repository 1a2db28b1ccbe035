package prefetch

import (
	"testing"

	"github.com/moatlab/melody/internal/mem"
	"github.com/moatlab/melody/internal/sim"
)

func TestSequentialStreamDetected(t *testing.T) {
	s := New(L1Config())
	var got []uint64
	base := uint64(1 << 20)
	for i := uint64(0); i < 8; i++ {
		got = s.Observe(base+i*mem.LineSize, got[:0])
		if len(got) > 0 {
			// Proposals must be ahead of the access, stride +1.
			for _, p := range got {
				if p <= base+i*mem.LineSize {
					t.Fatalf("proposal %#x not ahead of access %#x", p, base+i*mem.LineSize)
				}
			}
			return
		}
	}
	t.Fatal("sequential stream never triggered prefetch")
}

func TestBackwardStream(t *testing.T) {
	s := New(L1Config())
	var got []uint64
	base := uint64(1 << 20)
	for i := uint64(0); i < 8; i++ {
		got = s.Observe(base-i*mem.LineSize, got[:0])
		if len(got) > 0 {
			for _, p := range got {
				if p >= base-i*mem.LineSize {
					t.Fatalf("backward proposal %#x not behind access", p)
				}
			}
			return
		}
	}
	t.Fatal("backward stream never triggered prefetch")
}

func TestStride2Stream(t *testing.T) {
	s := New(L2Config())
	var got []uint64
	base := uint64(1 << 21)
	fired := false
	for i := uint64(0); i < 10; i++ {
		got = s.Observe(base+i*2*mem.LineSize, got[:0])
		if len(got) > 0 {
			fired = true
			if (got[0]-base)/mem.LineSize%2 != 0 {
				t.Fatalf("stride-2 proposal off-stride: %#x", got[0])
			}
		}
	}
	if !fired {
		t.Fatal("stride-2 stream never triggered")
	}
}

func TestRandomAccessesQuiet(t *testing.T) {
	s := New(L1Config())
	var got []uint64
	// Random-ish addresses in distinct pages: no stable stride.
	addrs := []uint64{0x10000, 0x5A000, 0x23000, 0x81000, 0x4C000, 0x99000, 0x17000}
	total := 0
	for _, a := range addrs {
		got = s.Observe(a, got[:0])
		total += len(got)
	}
	if total != 0 {
		t.Fatalf("random stream produced %d proposals", total)
	}
}

func TestProposalsDoNotRepeat(t *testing.T) {
	s := New(L1Config())
	seen := map[uint64]int{}
	var buf []uint64
	base := uint64(1 << 22)
	for i := uint64(0); i < 64; i++ {
		buf = s.Observe(base+i*mem.LineSize, buf[:0])
		for _, p := range buf {
			seen[p]++
			if seen[p] > 1 {
				t.Fatalf("line %#x proposed %d times", p, seen[p])
			}
		}
	}
	if len(seen) == 0 {
		t.Fatal("no proposals at all")
	}
}

func TestResetForgets(t *testing.T) {
	s := New(L1Config())
	var buf []uint64
	base := uint64(1 << 20)
	for i := uint64(0); i < 8; i++ {
		buf = s.Observe(base+i*mem.LineSize, buf[:0])
	}
	s.Reset()
	if s.Observed() != 0 {
		t.Fatal("stats survive Reset")
	}
	buf = s.Observe(base+8*mem.LineSize, buf[:0])
	if len(buf) != 0 {
		t.Fatal("proposals fired immediately after Reset (no retraining)")
	}
}

// BenchmarkStreamerObserve times one Observe per op into a caller-owned
// buffer, as the core model calls it, for both engine shapes. Seven in
// ten accesses walk eight interleaved streams (forward, backward or
// stride 2, each wrapping within 16 pages), the rest land on random
// lines of a 256 MB region. It allocates nothing per op.
func BenchmarkStreamerObserve(b *testing.B) {
	r := sim.NewRand(1)
	addrs := make([]uint64, 1<<16)
	var pos [8]int64
	for i := range addrs {
		if r.Uint64n(10) >= 7 {
			addrs[i] = r.Uint64n(256<<20) &^ (mem.LineSize - 1)
			continue
		}
		s := r.Uint64n(8)
		stride := []int64{1, -1, 2, 1}[s%4]
		pos[s] += stride
		line := int64(s+1)<<20 + pos[s]%(pageBytes/mem.LineSize*16)
		addrs[i] = uint64(line) * mem.LineSize
	}
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"L1", L1Config()}, {"L2", L2Config()}} {
		b.Run(c.name, func(b *testing.B) {
			s := New(c.cfg)
			buf := make([]uint64, 0, c.cfg.Degree)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = s.Observe(addrs[i&(len(addrs)-1)], buf[:0])
			}
		})
	}
}
