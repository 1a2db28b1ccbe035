package serve

import (
	"context"
	"testing"
	"time"

	"github.com/moatlab/melody/internal/jobs"
	"github.com/moatlab/melody/internal/obs"
)

func TestHubDropOldest(t *testing.T) {
	reg := obs.NewRegistry()
	dropped := reg.Counter("dropped")
	h := NewHub(reg.Counter("published"), dropped)
	h.queueCap = 8
	sub := h.Subscribe()
	defer h.Unsubscribe(sub)

	// A wedged client: 100 events arrive while it drains nothing.
	for i := 0; i < 100; i++ {
		h.Publish(jobs.Event{Type: jobs.EventCell})
	}
	if got := dropped.Value(); got != 92 {
		t.Fatalf("dropped = %d, want 92 (100 published into a queue of 8)", got)
	}
	if sub.Pending() != 8 {
		t.Fatalf("pending = %d, want 8", sub.Pending())
	}
	evs, ok := sub.Next(context.Background())
	if !ok || len(evs) != 8 {
		t.Fatalf("drained %d events (ok=%v), want 8", len(evs), ok)
	}
	// Oldest dropped: the survivors are exactly the newest eight, in
	// order, so the client sees a seq gap of 92.
	for i, ev := range evs {
		if want := uint64(93 + i); ev.Seq != want {
			t.Fatalf("event %d seq = %d, want %d (drop-oldest order)", i, ev.Seq, want)
		}
	}
}

// TestHubPublishNeverBlocks publishes 50k events into the queues of
// two wedged subscribers that never drain. Every publish returns, each
// queue holds exactly its capacity of the newest events, and every
// offer to a subscriber was either queued or counted as dropped.
func TestHubPublishNeverBlocks(t *testing.T) {
	const n, capacity = 50_000, 4
	reg := obs.NewRegistry()
	published, dropped := reg.Counter("published"), reg.Counter("dropped")
	h := NewHub(published, dropped)
	h.queueCap = capacity
	subs := []*Subscriber{h.Subscribe(), h.Subscribe()}
	for i := 0; i < n; i++ {
		h.Publish(jobs.Event{Type: jobs.EventCell, Done: i})
	}
	if got := published.Value(); got != n {
		t.Fatalf("published = %d, want %d", got, n)
	}
	var queued uint64
	for k, sub := range subs {
		if got := sub.Pending(); got != capacity {
			t.Fatalf("subscriber %d holds %d events, want its capacity %d", k, got, capacity)
		}
		evs, _ := sub.Next(context.Background())
		for i, ev := range evs {
			if want := n - capacity + i; ev.Done != want || ev.Seq != uint64(want+1) {
				t.Fatalf("subscriber %d event %d: done %d seq %d, want the newest (done %d seq %d)",
					k, i, ev.Done, ev.Seq, want, want+1)
			}
		}
		queued += uint64(len(evs))
	}
	if got, want := queued+dropped.Value(), published.Value()*uint64(len(subs)); got != want {
		t.Fatalf("queued %d + dropped %d = %d, want published x subscribers = %d",
			queued, dropped.Value(), got, want)
	}
}

func TestHubSequenceMonotone(t *testing.T) {
	h := NewHub(nil, nil)
	sub := h.Subscribe()
	for i := 0; i < 5; i++ {
		h.Publish(jobs.Event{Type: jobs.EventCell})
	}
	evs, _ := sub.Next(context.Background())
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("seq not dense without drops: %d after %d", evs[i].Seq, evs[i-1].Seq)
		}
	}
}

func TestSubscriberNextCancel(t *testing.T) {
	h := NewHub(nil, nil)
	sub := h.Subscribe()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool)
	go func() {
		_, ok := sub.Next(ctx)
		done <- ok
	}()
	cancel()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Next returned ok after cancellation")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Next did not observe cancellation")
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	h := NewHub(nil, nil)
	sub := h.Subscribe()
	h.Unsubscribe(sub)
	h.Publish(jobs.Event{Type: jobs.EventRunEnd})
	if sub.Pending() != 0 {
		t.Fatal("unsubscribed consumer still received events")
	}
	if h.Subscribers() != 0 {
		t.Fatalf("subscriber count = %d after unsubscribe", h.Subscribers())
	}
}

func TestNilHubPublish(t *testing.T) {
	var h *Hub
	h.Publish(jobs.Event{Type: jobs.EventCell}) // must not panic
}
