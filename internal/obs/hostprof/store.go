package hostprof

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"sync"
	"time"

	"github.com/moatlab/melody/internal/obs"
)

// Store bounds. Sized like the tracespan store: deep enough that every
// capture of a debugging session is still there tomorrow, small enough
// that the store stays negligible next to one run's manifest. A 5s CPU
// window gzips to tens of kilobytes, so 64 MiB holds days of routine
// capture.
const (
	maxCaptures = 256
	maxBytes    = 64 << 20
)

// Capture is one stored profile: the raw pprof bytes (gzipped
// profile.proto, exactly what `go tool pprof` consumes) plus the
// metadata the retention policy and the /profiles listing read.
type Capture struct {
	// ID is the content address: the first 16 hex characters of the
	// SHA-256 of Bytes. Identical bytes always get the same ID, so a
	// re-capture of an unchanged profile dedups instead of duplicating.
	ID string `json:"id"`
	// Type is the runtime/pprof profile kind: "cpu", "heap",
	// "goroutine", "mutex" or "block".
	Type string `json:"type"`
	// Reason records why the capture happened: "interval" for the
	// routine cadence, "job_start" for a job-triggered capture,
	// "watchdog:<signal>" for anomaly-triggered ones.
	Reason string `json:"reason"`
	// Start/End bound the capture window (equal for instant snapshots).
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Size is len(Bytes), echoed in listings so an operator sees cost
	// before downloading.
	Size int `json:"size_bytes"`
	// Jobs holds the ids of jobs that executed between the start of the
	// capture's round and End — the join key into /runs, the structured
	// logs and the trace store. A CPU capture listing a job here is
	// sliceable to that job with `go tool pprof -tagfocus job_id=<id>`.
	Jobs []string `json:"jobs,omitempty"`

	// Bytes is the profile payload; omitted from listings (the
	// /profiles/{id} endpoint serves it raw).
	Bytes []byte `json:"-"`
}

// StoreStats counts the store's lifetime activity (all monotonic
// except the occupancy gauges).
type StoreStats struct {
	Captures  uint64 `json:"captures_added"`
	Dedups    uint64 `json:"captures_deduped"`
	Evicted   uint64 `json:"captures_evicted"`
	Stored    int    `json:"captures_stored"`
	StoredLen int64  `json:"bytes_stored"`
}

// Store is a bounded, content-addressed collection of captures.
// Retention is tail-biased, the same philosophy as the tracespan
// store: when a cap is hit, the evicted capture is the oldest routine
// one — captures that overlapped a job, or that a watchdog or job
// trigger fired, outlive interval captures until only protected ones
// are left. The anomalies an operator needs tomorrow are exactly the
// captures something unusual produced.
type Store struct {
	mu       sync.Mutex
	captures *obs.Retention[string, *Capture]
	stats    StoreStats
}

// NewStore returns a store retaining up to 256 captures and 64 MiB of
// payload.
func NewStore() *Store { return newStore(maxCaptures, maxBytes) }

func newStore(captureCap int, byteCap int64) *Store {
	return &Store{captures: obs.NewRetention[string, *Capture](captureCap, byteCap)}
}

// CaptureID returns the content address of a profile payload.
func CaptureID(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// protected reports whether c survives routine eviction: anything a
// trigger fired (watchdog, job start) or that overlapped running jobs.
func protected(c *Capture) bool {
	return c.Reason != ReasonInterval || len(c.Jobs) > 0
}

// Add files one capture, computing its content address, dedup-ing
// identical payloads, and evicting per the retention policy. It
// returns the capture's ID.
func (s *Store) Add(c Capture) string {
	c.ID = CaptureID(c.Bytes)
	c.Size = len(c.Bytes)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.captures.Get(c.ID); ok {
		// Same bytes re-captured: keep one payload, but let the newer
		// metadata win where it strengthens retention — a routine
		// capture re-taken under a watchdog trigger is now evidence.
		s.stats.Dedups++
		old.End = c.End
		if protected(&c) && !protected(old) {
			old.Reason = c.Reason
			old.Jobs = c.Jobs
		}
		return c.ID
	}
	s.captures.Put(c.ID, &c, int64(c.Size))
	s.stats.Captures++
	// When every older capture is protected, the oldest goes anyway:
	// bounded memory beats perfect retention.
	n, _ := s.captures.Evict(protected, true, nil)
	s.stats.Evicted += uint64(n)
	return c.ID
}

// Len returns the number of retained captures.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.captures.Len()
}

// Stats returns the store's counters.
func (s *Store) Stats() StoreStats {
	if s == nil {
		return StoreStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Stored, st.StoredLen = s.captures.Len(), s.captures.Bytes()
	return st
}

// Filter selects captures for List. Zero values match everything.
type Filter struct {
	// Type keeps only captures of one profile kind.
	Type string
	// Reason keeps only captures with this exact reason.
	Reason string
	// JobID keeps only captures that overlapped this job.
	JobID string
	// Limit bounds the result count (0 = no bound).
	Limit int
}

func matches(c *Capture, f Filter) bool {
	if f.Type != "" && c.Type != f.Type {
		return false
	}
	if f.Reason != "" && c.Reason != f.Reason {
		return false
	}
	return f.JobID == "" || slices.Contains(c.Jobs, f.JobID)
}

// List returns retained captures newest-first, filtered by f. The
// returned values carry metadata only (Bytes stays in the store).
func (s *Store) List(f Filter) []Capture {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Capture, 0, s.captures.Len())
	for i := s.captures.Len() - 1; i >= 0; i-- {
		c := s.captures.At(i)
		if !matches(c, f) {
			continue
		}
		meta := *c
		meta.Bytes = nil
		out = append(out, meta)
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

// Get returns one capture including its payload. ok is false for
// unknown (or evicted) ids.
func (s *Store) Get(id string) (Capture, bool) {
	if s == nil {
		return Capture{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.captures.Get(id)
	if !ok {
		return Capture{}, false
	}
	return *c, true
}
