package hostprof

import (
	"fmt"
	"testing"
	"time"
)

func mkcap(t, reason string, jobs []string, payload string) Capture {
	now := time.Now()
	return Capture{Type: t, Reason: reason, Jobs: jobs, Start: now, End: now, Bytes: []byte(payload)}
}

func TestStoreContentAddress(t *testing.T) {
	s := NewStore()
	id1 := s.Add(mkcap(TypeHeap, ReasonInterval, nil, "payload-a"))
	id2 := s.Add(mkcap(TypeHeap, ReasonInterval, nil, "payload-b"))
	if id1 == id2 {
		t.Fatalf("distinct payloads got the same id %q", id1)
	}
	if id1 != CaptureID([]byte("payload-a")) {
		t.Fatalf("id %q is not the content address", id1)
	}
	got, ok := s.Get(id1)
	if !ok || string(got.Bytes) != "payload-a" {
		t.Fatalf("Get(%q) = %+v, %v", id1, got, ok)
	}
	if _, ok := s.Get("nope"); ok {
		t.Fatal("Get of unknown id reported ok")
	}
}

func TestStoreDedupStrengthensRetention(t *testing.T) {
	s := NewStore()
	id := s.Add(mkcap(TypeHeap, ReasonInterval, nil, "same-bytes"))
	// Re-capture of identical bytes under a watchdog trigger: one copy
	// kept, metadata upgraded to the protected reason.
	id2 := s.Add(mkcap(TypeHeap, ReasonWatchdogPrefix+SignalHeap, nil, "same-bytes"))
	if id != id2 {
		t.Fatalf("dedup produced different ids %q vs %q", id, id2)
	}
	if st := s.Stats(); st.Dedups != 1 || st.Stored != 1 {
		t.Fatalf("stats = %+v, want 1 dedup, 1 stored", st)
	}
	got, _ := s.Get(id)
	if got.Reason != ReasonWatchdogPrefix+SignalHeap {
		t.Fatalf("reason %q not strengthened", got.Reason)
	}
	// A later routine re-capture must not weaken it back.
	s.Add(mkcap(TypeHeap, ReasonInterval, nil, "same-bytes"))
	got, _ = s.Get(id)
	if got.Reason != ReasonWatchdogPrefix+SignalHeap {
		t.Fatalf("reason %q weakened by routine dedup", got.Reason)
	}
}

func TestStoreEvictsOldestUnprotected(t *testing.T) {
	s := newStore(4, 0)
	protectedID := s.Add(mkcap(TypeCPU, ReasonJobStart, []string{"run-1"}, "p0"))
	routine1 := s.Add(mkcap(TypeCPU, ReasonInterval, nil, "p1"))
	routine2 := s.Add(mkcap(TypeCPU, ReasonInterval, nil, "p2"))
	s.Add(mkcap(TypeCPU, ReasonInterval, nil, "p3"))
	s.Add(mkcap(TypeCPU, ReasonInterval, nil, "p4")) // over cap: evicts routine1, not the older protected capture

	if _, ok := s.Get(routine1); ok {
		t.Fatal("oldest routine capture survived eviction")
	}
	if _, ok := s.Get(protectedID); !ok {
		t.Fatal("protected capture was evicted while a routine one remained")
	}
	if _, ok := s.Get(routine2); !ok {
		t.Fatal("newer routine capture evicted out of order")
	}
	if st := s.Stats(); st.Evicted != 1 || st.Stored != 4 {
		t.Fatalf("stats = %+v, want 1 evicted, 4 stored", st)
	}
}

func TestStoreEvictsOldestWhenAllProtected(t *testing.T) {
	s := newStore(2, 0)
	first := s.Add(mkcap(TypeCPU, ReasonJobStart, []string{"a"}, "q0"))
	s.Add(mkcap(TypeCPU, ReasonJobStart, []string{"b"}, "q1"))
	newest := s.Add(mkcap(TypeCPU, ReasonJobStart, []string{"c"}, "q2"))
	if _, ok := s.Get(first); ok {
		t.Fatal("bounded store kept everything despite cap")
	}
	if _, ok := s.Get(newest); !ok {
		t.Fatal("newest capture must never be the eviction victim")
	}
}

func TestStoreByteCap(t *testing.T) {
	s := newStore(100, 10)
	a := s.Add(mkcap(TypeHeap, ReasonInterval, nil, "aaaaaa")) // 6 bytes
	b := s.Add(mkcap(TypeHeap, ReasonInterval, nil, "bbbbbb")) // 12 total → evict a
	if _, ok := s.Get(a); ok {
		t.Fatal("byte cap did not evict")
	}
	if _, ok := s.Get(b); !ok {
		t.Fatal("newest capture evicted by byte cap")
	}
	// A single oversize capture is still retained: bounded memory, but
	// the newest capture always survives.
	big := s.Add(mkcap(TypeHeap, ReasonInterval, nil, "cccccccccccccccccccc"))
	if _, ok := s.Get(big); !ok {
		t.Fatal("oversize newest capture dropped")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestStoreListFilters(t *testing.T) {
	s := NewStore()
	for i := 0; i < 3; i++ {
		s.Add(mkcap(TypeHeap, ReasonInterval, nil, fmt.Sprintf("h%d", i)))
	}
	s.Add(mkcap(TypeCPU, ReasonJobStart, []string{"run-7"}, "c0"))
	s.Add(mkcap(TypeCPU, ReasonInterval, nil, "c1"))

	if got := len(s.List(Filter{})); got != 5 {
		t.Fatalf("unfiltered List = %d captures, want 5", got)
	}
	if got := s.List(Filter{Type: TypeCPU}); len(got) != 2 || got[0].Type != TypeCPU {
		t.Fatalf("Type filter = %+v", got)
	}
	if got := s.List(Filter{Reason: ReasonJobStart}); len(got) != 1 || len(got[0].Jobs) != 1 {
		t.Fatalf("Reason filter = %+v", got)
	}
	if got := s.List(Filter{JobID: "run-7"}); len(got) != 1 || got[0].ID != CaptureID([]byte("c0")) {
		t.Fatalf("JobID filter = %+v", got)
	}
	if got := s.List(Filter{Limit: 2}); len(got) != 2 {
		t.Fatalf("Limit = %d captures, want 2", len(got))
	}
	// Newest first, metadata only.
	all := s.List(Filter{})
	if all[0].ID != CaptureID([]byte("c1")) {
		t.Fatalf("List not newest-first: %+v", all[0])
	}
	for _, c := range all {
		if c.Bytes != nil {
			t.Fatal("List leaked payload bytes")
		}
		if c.Size == 0 {
			t.Fatal("List entry missing Size")
		}
	}
}
