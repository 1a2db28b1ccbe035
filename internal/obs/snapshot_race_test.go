package obs

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestSnapshotUnderConcurrentRecording hammers Registry.Export while
// many goroutines add to counters and record into histograms — the
// exact interleaving a live /metrics scrape performs against a running
// engine. Run under -race it proves the scrape path is data-race free;
// the assertions prove every observed export is internally consistent:
// a histogram's exported count always equals its cumulative bucket
// total (all fields come from one critical section), and counters
// never run backwards between observations.
func TestSnapshotUnderConcurrentRecording(t *testing.T) {
	reg := NewRegistry()
	const (
		writers   = 8
		perWriter = 20_000
		snapshots = 200
		histName  = "hammer/latency_ns"
		countName = "hammer/ops"
		gaugeName = "hammer/level"
	)
	h := reg.Histogram(histName)
	c := reg.Counter(countName)
	g := reg.Gauge(gaugeName)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Record(float64(1 + (w*perWriter+i)%4096))
				c.Add(1)
				g.Set(float64(i))
			}
		}(w)
	}

	var snapWG sync.WaitGroup
	for s := 0; s < 4; s++ {
		snapWG.Add(1)
		go func() {
			defer snapWG.Done()
			var lastCount, lastHist uint64
			for i := 0; i < snapshots && !stop.Load(); i++ {
				ex := reg.Export()
				if n := ex.Counters[countName]; n < lastCount {
					t.Errorf("counter ran backwards: %d after %d", n, lastCount)
					return
				} else {
					lastCount = n
				}
				he := ex.Histograms[histName]
				var cum uint64
				if len(he.Buckets) > 0 {
					cum = he.Buckets[len(he.Buckets)-1].Count
				}
				if cum != he.Count {
					t.Errorf("snapshot inconsistent: bucket sum %d != count %d", cum, he.Count)
					return
				}
				if he.Count < lastHist {
					t.Errorf("histogram count ran backwards: %d after %d", he.Count, lastHist)
					return
				}
				lastHist = he.Count
				// Get-or-create lookups race with snapshots too.
				reg.Counter(countName)
				reg.Histogram(histName)
			}
		}()
	}

	wg.Wait()
	stop.Store(true)
	snapWG.Wait()

	if got := c.Value(); got != writers*perWriter {
		t.Fatalf("final counter = %d, want %d", got, writers*perWriter)
	}
	ex := h.Export()
	if ex.Count != writers*perWriter {
		t.Fatalf("final histogram count = %d, want %d", ex.Count, writers*perWriter)
	}
	if last := ex.Buckets[len(ex.Buckets)-1].Count; last != ex.Count {
		t.Fatalf("final bucket sum %d != count %d", last, ex.Count)
	}
}
