package traffic

import (
	"math"
	"testing"

	"github.com/moatlab/melody/internal/sim"
)

// scan is the scheduling loop Scheduler replaced, kept as its oracle:
// every step scans all live threads for the earliest wake time, and the
// lowest index wins a tie.
type scan struct {
	threads []Thread
	wake    []float64
	alive   []bool
	now     float64
}

func newScan(threads []Thread) *scan {
	s := &scan{threads: threads, wake: make([]float64, len(threads)), alive: make([]bool, len(threads))}
	s.reset()
	return s
}

func (s *scan) reset() {
	for i := range s.alive {
		s.wake[i], s.alive[i] = 0, true
	}
	s.now = 0
}

func (s *scan) advance(untilNs float64) float64 {
	for {
		best := -1
		for i := range s.threads {
			if s.alive[i] && (best < 0 || s.wake[i] < s.wake[best]) {
				best = i
			}
		}
		if best < 0 || s.wake[best] > untilNs {
			return s.now
		}
		s.now = s.wake[best]
		next := s.threads[best].Step(s.now)
		if next <= s.now {
			s.alive[best] = false
			continue
		}
		s.wake[best] = next
	}
}

// step is one call of a thread's Step: which thread, and when.
type step struct {
	i   int
	now float64
}

// scripted draws its wake times from its own seeded stream, so two
// copies built from one seed act alike under any scheduler. Its steps
// are multiples of 4 ns, so wake times often tie, and now and then it
// returns a time that is not later than now, which stops it.
type scripted struct {
	i   int
	rng *sim.Rand
	log *[]step
}

func (s *scripted) Step(now float64) float64 {
	*s.log = append(*s.log, step{s.i, now})
	switch r := s.rng.Uint64n(50); {
	case r == 0:
		return now
	case r == 1:
		return now - 8
	case r < 4:
		return now + 400
	default:
		return now + float64(4*(1+s.rng.Uint64n(6)))
	}
}

// threadSet builds n scripted threads logging into log.
func threadSet(seed uint64, n int, log *[]step) []Thread {
	threads := make([]Thread, n)
	for i := range threads {
		threads[i] = &scripted{i: i, rng: sim.NewRand(seed*1000 + uint64(i)), log: log}
	}
	return threads
}

// firstDiff returns the index of the first step where a and b differ,
// or -1 if they are equal.
func firstDiff(a, b []step) int {
	for k := range min(len(a), len(b)) {
		if a[k] != b[k] {
			return k
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// TestSchedulerMatchesScan checks that Scheduler takes the scan's steps
// in the scan's order and reports the scan's clock, over random thread
// sets with tied wake times, stopping threads, Resets, and deadlines
// that repeat or go backwards.
func TestSchedulerMatchesScan(t *testing.T) {
	rng := sim.NewRand(1)
	for trial := uint64(0); trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		var deadlines []float64
		d := 0.0
		for k := 0; k < 12; k++ {
			switch rng.Intn(4) {
			case 0: // repeat the last deadline
			case 1:
				d = math.Max(0, d-float64(rng.Intn(60)))
			default:
				d += float64(rng.Intn(120))
			}
			deadlines = append(deadlines, d)
		}
		resetAt := rng.Intn(len(deadlines) + 4)

		var wantLog, gotLog []step
		ref := newScan(threadSet(trial, n, &wantLog))
		sched := NewScheduler(threadSet(trial, n, &gotLog))
		for k, d := range deadlines {
			if k == resetAt {
				ref.reset()
				sched.Reset()
			}
			want, got := ref.advance(d), sched.Advance(d)
			if got != want {
				t.Fatalf("trial %d (%d threads), Advance(%v) #%d = %v, scan gives %v", trial, n, d, k, got, want)
			}
		}
		if k := firstDiff(gotLog, wantLog); k >= 0 {
			t.Fatalf("trial %d (%d threads): step %d of %d differs from the scan's %d", trial, n, k, len(gotLog), len(wantLog))
		}

		wantLog, gotLog = nil, nil
		want := newScan(threadSet(trial, n, &wantLog)).advance(d)
		if got := Run(threadSet(trial, n, &gotLog), d); got != want || firstDiff(gotLog, wantLog) >= 0 {
			t.Fatalf("trial %d: Run(%v) = %v after %d steps, scan gives %v after %d", trial, d, got, len(gotLog), want, len(wantLog))
		}
	}
}

// TestSchedulerStopsNonFinite checks the Thread doc rather than the
// scan, which keeps a thread that returns NaN: such a thread is stepped
// once, at whatever index it sits, and one that returns +Inf is not
// stepped again before a finite deadline.
func TestSchedulerStopsNonFinite(t *testing.T) {
	for _, wake := range []float64{math.NaN(), math.Inf(1)} {
		for at := 0; at < 3; at++ {
			var steps [3]int
			threads := make([]Thread, 3)
			for i := range threads {
				threads[i] = ThreadFunc(func(now float64) float64 {
					steps[i]++
					if i == at {
						return wake
					}
					if now >= 100 {
						return now
					}
					return now + 10
				})
			}
			if end := Run(threads, math.MaxFloat64); end != 100 {
				t.Errorf("wake %v at index %d: clock %v, want 100", wake, at, end)
			}
			for i, n := range steps {
				if want := map[bool]int{true: 1, false: 11}[i == at]; n != want {
					t.Errorf("wake %v at index %d: thread %d stepped %d times, want %d", wake, at, i, n, want)
				}
			}
		}
	}
}
