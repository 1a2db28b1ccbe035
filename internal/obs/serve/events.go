package serve

import (
	"context"
	"encoding/json"
	"sync"

	"github.com/moatlab/melody/internal/jobs"
	"github.com/moatlab/melody/internal/obs"
)

// marshalEvent encodes one SSE event. It is a seam (swapped in tests)
// so the encode-failure accounting is exercisable even though
// jobs.Event's fields can never actually fail to marshal today.
var marshalEvent = json.Marshal

// Event types only the observatory publishes. The lifecycle types,
// run_end included, are internal/jobs' (jobs.EventCell and friends).
const (
	// EventJobStatus is the synthetic snapshot a per-job subscriber
	// receives on connect.
	EventJobStatus = "status"
	// EventRegression announces a finished run that regressed against a
	// pinned baseline. It is published on the job's stream *before*
	// job_finished (so per-job subscribers see it before their stream
	// closes) and mirrored on the run-level /events stream.
	EventRegression = "regression"
)

// queueCap bounds each subscriber's pending-event queue. 256 events
// outlive any realistic scrape hiccup, yet cap the worst-case
// per-client memory at a few tens of kilobytes.
const queueCap = 256

// Hub fans events out to subscribers without ever blocking the
// publisher: each subscriber owns a bounded queue and a full queue
// drops its oldest event (counted in dropped). Publish does a bounded
// amount of work under short mutexes, so the engine's wall time is
// independent of how slow — or how wedged — any /events client is.
type Hub struct {
	queueCap  int
	published *obs.Counter
	dropped   *obs.Counter

	mu   sync.Mutex
	subs map[*Subscriber]struct{}
	seq  uint64
}

// NewHub returns a hub with per-subscriber queues of 256 events.
// published/dropped may be nil.
func NewHub(published, dropped *obs.Counter) *Hub {
	return &Hub{
		queueCap:  queueCap,
		published: published,
		dropped:   dropped,
		subs:      map[*Subscriber]struct{}{},
	}
}

// Publish stamps ev with the next sequence number and offers it to
// every subscriber. It never blocks on slow consumers.
func (h *Hub) Publish(ev jobs.Event) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.seq++
	ev.Seq = h.seq
	subs := make([]*Subscriber, 0, len(h.subs))
	for s := range h.subs {
		subs = append(subs, s)
	}
	h.mu.Unlock()
	h.published.Inc()
	for _, s := range subs {
		s.offer(ev, h.dropped)
	}
}

// Subscribe registers a new consumer. The caller must Unsubscribe when
// done (the HTTP handler defers it on disconnect).
func (h *Hub) Subscribe() *Subscriber {
	s := &Subscriber{
		cap:    h.queueCap,
		notify: make(chan struct{}, 1),
	}
	h.mu.Lock()
	h.subs[s] = struct{}{}
	h.mu.Unlock()
	return s
}

// Unsubscribe removes s; pending events are discarded.
func (h *Hub) Unsubscribe(s *Subscriber) {
	h.mu.Lock()
	delete(h.subs, s)
	h.mu.Unlock()
}

// Subscribers returns the current consumer count.
func (h *Hub) Subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// Subscriber is one consumer's bounded event queue.
type Subscriber struct {
	cap    int
	notify chan struct{}

	mu  sync.Mutex
	buf []jobs.Event
}

// offer enqueues ev, dropping the oldest pending event when full.
func (s *Subscriber) offer(ev jobs.Event, dropped *obs.Counter) {
	s.mu.Lock()
	if len(s.buf) >= s.cap {
		copy(s.buf, s.buf[1:])
		s.buf[len(s.buf)-1] = ev
		dropped.Inc()
	} else {
		s.buf = append(s.buf, ev)
	}
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Next blocks until at least one event is pending (returning the whole
// pending batch, oldest first) or ctx is done (returning ok=false).
func (s *Subscriber) Next(ctx context.Context) ([]jobs.Event, bool) {
	for {
		s.mu.Lock()
		if len(s.buf) > 0 {
			out := s.buf
			s.buf = nil
			s.mu.Unlock()
			return out, true
		}
		s.mu.Unlock()
		select {
		case <-s.notify:
		case <-ctx.Done():
			return nil, false
		}
	}
}

// Pending returns the number of queued events (for tests).
func (s *Subscriber) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.buf)
}
