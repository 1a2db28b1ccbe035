package jobs

import (
	"math"
	"sync"
	"time"
)

// RunStore is the content-addressed run store behind cache-hit
// resubmission: completed manifests keyed by spec hash. The manager
// ships with an in-memory implementation (dies with the process); an
// internal/obs/ledger.Ledger satisfies the same signature set and
// makes the store durable — `/runs` history and cache hits then
// survive restarts. Implementations must be safe for concurrent use.
type RunStore interface {
	// Put files one completed manifest under its spec hash. specJSON is
	// the canonical encoded RunSpec (durable stores keep it so history
	// can be rebuilt); jobID records provenance.
	Put(specHash, address string, manifest, specJSON []byte, jobID string) error
	// Get returns the stored manifest bytes and content address.
	Get(specHash string) (manifest []byte, address string, ok bool)
	// Stat reports presence and address without reading the payload.
	Stat(specHash string) (address string, ok bool)
	// Len returns the number of stored entries.
	Len() int
}

// memStore is the default in-memory RunStore: exactly the semantics
// the manager had before durable storage existed.
type memStore struct {
	mu sync.Mutex
	m  map[string]memEntry
}

type memEntry struct {
	manifest []byte
	address  string
}

func newMemStore() *memStore { return &memStore{m: map[string]memEntry{}} }

func (s *memStore) Put(specHash, address string, manifest, specJSON []byte, jobID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[specHash] = memEntry{manifest: manifest, address: address}
	return nil
}

func (s *memStore) Get(specHash string) ([]byte, string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[specHash]
	return e.manifest, e.address, ok
}

func (s *memStore) Stat(specHash string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[specHash]
	return e.address, ok
}

func (s *memStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// DefaultExecEstimate seeds the Retry-After computation before any job
// has finished: with no execution history, assume a short job rather
// than telling clients to go away for minutes.
const DefaultExecEstimate = 1 * time.Second

// maxRetryAfter caps the hint: past ten minutes the number stops being
// advice and starts being a lie about a queue this deep.
const maxRetryAfter = 10 * time.Minute

// RetryAfter computes the 429 Retry-After hint from the work ahead of
// a would-be submission: jobs already in the system (queued plus
// running) times the mean observed execution duration, rounded up to
// whole seconds and clamped to [1s, 10m]. Exported as a pure function
// so the computation is unit-testable apart from a live manager.
func RetryAfter(jobsAhead int, meanExec time.Duration) time.Duration {
	if meanExec <= 0 {
		meanExec = DefaultExecEstimate
	}
	if jobsAhead < 1 {
		jobsAhead = 1
	}
	d := time.Duration(jobsAhead) * meanExec
	if d > maxRetryAfter {
		d = maxRetryAfter
	}
	// Whole seconds, rounded up: Retry-After's grammar is integer
	// seconds, and "come back too early" just earns another 429.
	secs := math.Ceil(d.Seconds())
	if secs < 1 {
		secs = 1
	}
	return time.Duration(secs) * time.Second
}

// RetryAfterHint is the manager's live Retry-After estimate: current
// queue depth (plus the in-flight job, if any) against the mean
// jobs/exec_seconds observed so far. The HTTP layer stamps it on 429
// responses instead of a hardcoded constant, so a client backing off
// by the hint re-arrives roughly when the queue has drained.
func (m *Manager) RetryAfterHint() time.Duration {
	m.mu.Lock()
	ahead := len(m.queue)
	for _, j := range m.live {
		if j.State == StateRunning {
			ahead++
		}
	}
	var mean time.Duration
	if m.execCount > 0 {
		mean = time.Duration(m.execSum / float64(m.execCount) * float64(time.Second))
	}
	m.mu.Unlock()
	return RetryAfter(ahead, mean)
}
