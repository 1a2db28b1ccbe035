package melody

import (
	"encoding/json"
	"sync"
	"testing"

	"github.com/moatlab/melody/internal/jobs"
)

func TestRunStatusLifecycle(t *testing.T) {
	s := NewRunStatus(NewTelemetry())
	s.Declare([]string{"fig5", "fig8a", "no-such-experiment"})

	snap := s.Snapshot()
	if len(snap.Experiments) != 3 || snap.Experiments[0].State != "pending" {
		t.Fatalf("declared snapshot = %+v", snap.Experiments)
	}
	// Declare looks the titles up in the experiment registry.
	for i, id := range []string{"fig5", "fig8a"} {
		e, _ := ExperimentByID(id)
		if got := snap.Experiments[i].Title; got == "" || got != e.Title {
			t.Fatalf("%s declared with title %q, want the registered %q", id, got, e.Title)
		}
	}
	if got := snap.Experiments[2].Title; got != "" {
		t.Fatalf("unknown id declared with title %q", got)
	}

	s.Apply(jobs.Event{Type: jobs.EventExperimentStart, Experiment: "fig5", Title: "Curves"})
	s.Apply(jobs.Event{Type: jobs.EventCell, Experiment: "fig5", Done: 3, Total: 10})
	snap = s.Snapshot()
	if e := snap.Experiments[0]; e.State != "running" || e.Done != 3 || e.Total != 10 {
		t.Fatalf("running snapshot = %+v", e)
	}

	s.Apply(jobs.Event{Type: jobs.EventExperimentEnd, Experiment: "fig5", WallS: 2.5})
	s.Apply(jobs.Event{Type: jobs.EventExperimentStart, Experiment: "fig8a"})
	s.Apply(jobs.Event{Type: jobs.EventExperimentEnd, Experiment: "fig8a", WallS: 1.0})
	s.Apply(jobs.Event{Type: jobs.EventRunEnd})
	snap = s.Snapshot()
	if !snap.Done || snap.Interrupted {
		t.Fatalf("finished snapshot flags = done=%v interrupted=%v", snap.Done, snap.Interrupted)
	}
	if e := snap.Experiments[0]; e.State != "done" || e.Done != e.Total || e.WallS != 2.5 {
		t.Fatalf("done snapshot = %+v", e)
	}
	// Order is declaration order, not completion order.
	if snap.Experiments[0].ID != "fig5" || snap.Experiments[1].ID != "fig8a" {
		t.Fatalf("order = %s,%s", snap.Experiments[0].ID, snap.Experiments[1].ID)
	}
}

func TestRunStatusInterrupted(t *testing.T) {
	s := NewRunStatus(nil)
	s.Apply(jobs.Event{Type: jobs.EventExperimentStart, Experiment: "fig5", Title: "Curves"})
	s.Apply(jobs.Event{Type: jobs.EventRunEnd, Interrupted: true})
	snap := s.Snapshot()
	if !snap.Interrupted || !snap.Done {
		t.Fatalf("interrupted run: %+v", snap)
	}
}

func TestRunStatusProgressNeverRegresses(t *testing.T) {
	s := NewRunStatus(nil)
	s.Apply(jobs.Event{Type: jobs.EventCell, Experiment: "fig5", Done: 8, Total: 10})
	// A smaller later report within the same batch must not roll back.
	s.Apply(jobs.Event{Type: jobs.EventCell, Experiment: "fig5", Done: 2, Total: 10})
	if e := s.Snapshot().Experiments[0]; e.Done != 8 {
		t.Fatalf("progress rolled back: %+v", e)
	}
	// A new batch (different total) may reset.
	s.Apply(jobs.Event{Type: jobs.EventCell, Experiment: "fig5", Done: 1, Total: 20})
	if e := s.Snapshot().Experiments[0]; e.Done != 1 || e.Total != 20 {
		t.Fatalf("new batch not adopted: %+v", e)
	}
}

func TestRunStatusNilSafe(t *testing.T) {
	var s *RunStatus
	s.Declare([]string{"x"})
	s.Apply(jobs.Event{Type: jobs.EventExperimentStart, Experiment: "x"})
	s.Apply(jobs.Event{Type: jobs.EventCell, Experiment: "x", Done: 1, Total: 2})
	s.Apply(jobs.Event{Type: jobs.EventExperimentEnd, Experiment: "x", WallS: 1})
	s.Apply(jobs.Event{Type: jobs.EventRunEnd})
	if snap := s.Snapshot(); snap.Experiments == nil {
		t.Fatal("nil status snapshot has nil experiments")
	}
}

func TestRunStatusSnapshotIsJSON(t *testing.T) {
	tel := NewTelemetry()
	tel.cacheHit.Add(3)
	tel.cacheMiss.Add(1)
	s := NewRunStatus(tel)
	s.Apply(jobs.Event{Type: jobs.EventExperimentStart, Experiment: "fig5", Title: "Curves"})
	raw, err := json.Marshal(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	cache := got["cache"].(map[string]any)
	if cache["hit_rate"].(float64) != 0.75 {
		t.Fatalf("hit rate = %v", cache["hit_rate"])
	}
}

// TestRunStatusConcurrentReadersAndWriters is race coverage for the
// /progress path: scrapers snapshot while the engine reports progress.
func TestRunStatusConcurrentReadersAndWriters(t *testing.T) {
	s := NewRunStatus(NewTelemetry())
	s.Declare([]string{"fig5"})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 5000; i++ {
			s.Apply(jobs.Event{Type: jobs.EventCell, Experiment: "fig5", Done: i, Total: 5000})
		}
		s.Apply(jobs.Event{Type: jobs.EventRunEnd})
	}()
	go func() {
		defer wg.Done()
		prev := -1
		for i := 0; i < 5000; i++ {
			snap := s.Snapshot()
			if len(snap.Experiments) != 1 {
				t.Errorf("snapshot lost experiments: %+v", snap)
				return
			}
			if d := snap.Experiments[0].Done; d < prev {
				t.Errorf("progress went backwards: %d after %d", d, prev)
				return
			} else {
				prev = d
			}
		}
	}()
	wg.Wait()
}

func TestCacheStatsNilTelemetry(t *testing.T) {
	var tel *Telemetry
	if cs := tel.CacheStats(); cs != (CacheStats{}) {
		t.Fatalf("nil telemetry cache stats = %+v", cs)
	}
	if tel.CellsRun() != 0 {
		t.Fatal("nil telemetry cells run != 0")
	}
}
