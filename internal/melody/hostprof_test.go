package melody

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"github.com/moatlab/melody/internal/jobs"
	"github.com/moatlab/melody/internal/obs/hostprof"
	"github.com/moatlab/melody/internal/obs/profile"
)

// TestExecutePprofLabels pins the label plumbing: while Execute runs,
// the executing goroutines carry spec_hash and experiment pprof labels
// (set via pprof.Do in Execute and Engine.Run and inherited by the
// runner's workers). The goroutine profile records labels without
// needing CPU samples, so the check is deterministic.
func TestExecutePprofLabels(t *testing.T) {
	sp := tracingSpec()
	hash, err := sp.Normalized().Hash()
	if err != nil {
		t.Fatal(err)
	}

	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	hooks := ExecHooks{
		// Cell events fire from inside the experiment's labeled scope; hold
		// the run there while the main goroutine snapshots.
		Event: func(ev jobs.Event) {
			if ev.Type != jobs.EventCell {
				return
			}
			once.Do(func() { close(started) })
			<-release
		},
	}

	done := make(chan error, 1)
	go func() {
		_, err := Execute(context.Background(), sp, hooks)
		done <- err
	}()
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("run never reached a progress callback")
	}

	pr := captureGoroutineProfile(t, hostprof.New(hostprof.Config{}))
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	if !hasLabel(pr, "spec_hash", hash) {
		t.Fatalf("no goroutine carried spec_hash=%s; values: %v", hash, pr.LabelValues("spec_hash"))
	}
	if !hasLabel(pr, "experiment", "fig8f") {
		t.Fatalf("no goroutine carried experiment=fig8f; values: %v", pr.LabelValues("experiment"))
	}
}

// captureGoroutineProfile runs p until its first round has taken the
// goroutine snapshot, then stops it and parses that snapshot.
func captureGoroutineProfile(t *testing.T, p *hostprof.Profiler) *profile.Parsed {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { p.Run(ctx); close(done) }()
	defer func() { cancel(); <-done }()
	deadline := time.After(10 * time.Second)
	var caps []hostprof.Capture
	for len(caps) == 0 {
		select {
		case <-deadline:
			t.Fatal("profiler captured no goroutine profile")
		case <-time.After(5 * time.Millisecond):
		}
		caps = p.Store().List(hostprof.Filter{Type: hostprof.TypeGoroutine})
	}
	full, ok := p.Store().Get(caps[0].ID)
	if !ok {
		t.Fatal("capture vanished")
	}
	pr, err := hostprof.Parse(full.Bytes)
	if err != nil {
		t.Fatalf("parse goroutine capture: %v", err)
	}
	return pr
}

func hasLabel(p *profile.Parsed, key, want string) bool {
	for _, v := range p.LabelValues(key) {
		if v == want {
			return true
		}
	}
	return false
}

// TestManifestParityProfilingOnOff pins the acceptance criterion: the
// same spec run with the continuous profiler actively capturing yields
// a manifest byte-identical (under StripHostTime) to a run with no
// profiler at all. Host profiling is observation of the process, never
// of the simulation.
func TestManifestParityProfilingOnOff(t *testing.T) {
	sp := tracingSpec()
	run := func() []byte {
		tel := NewTelemetry()
		out, err := Execute(context.Background(), sp, ExecHooks{Telemetry: tel})
		if err != nil {
			t.Fatal(err)
		}
		m := *out.Manifest
		m.StripHostTime()
		raw, err := EncodeManifest(m)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	plain := run()

	// Profiler on: tight cadence so rounds (CPU windows, heap snapshots,
	// mutex/block rate flips) actually overlap the execution.
	p := hostprof.New(hostprof.Config{Interval: 40 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	profDone := make(chan struct{})
	go func() { p.Run(ctx); close(profDone) }()
	profiled := run()
	cancel()
	<-profDone

	if p.Store().Len() == 0 {
		t.Fatal("profiler captured nothing — parity check proved nothing")
	}
	if !bytes.Equal(plain, profiled) {
		i := 0
		for i < len(plain) && i < len(profiled) && plain[i] == profiled[i] {
			i++
		}
		t.Fatalf("manifests differ at byte %d with profiling on vs off", i)
	}
	if bytes.Contains(profiled, []byte("hostprof")) {
		t.Fatal("manifest leaked profiler state")
	}
}
