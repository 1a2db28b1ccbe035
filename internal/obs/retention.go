package obs

import "errors"

// ErrAllProtected reports an Evict that stopped over a cap because
// every entry older than the newest is protected and force was off.
var ErrAllProtected = errors.New("obs: every evictable entry is protected")

// Retention is the bounded, arrival-ordered map behind the trace
// store, the host-profile store and the run ledger's index: entries
// capped by count and total bytes and evicted oldest first, with each
// owner's protected predicate deciding what outlives the rest. It is
// not safe for concurrent use; owners call it under their own lock.
type Retention[K comparable, V any] struct {
	maxLen   int
	maxBytes int64
	byKey    map[K]retained[V]
	order    []K // arrival order, oldest first
	bytes    int64
}

type retained[V any] struct {
	v    V
	size int64
}

// NewRetention returns an empty set capped at maxLen entries and
// maxBytes total size; a cap <= 0 is unbounded.
func NewRetention[K comparable, V any](maxLen int, maxBytes int64) *Retention[K, V] {
	return &Retention[K, V]{maxLen: maxLen, maxBytes: maxBytes, byKey: map[K]retained[V]{}}
}

// Get returns the entry filed under k.
func (r *Retention[K, V]) Get(k K) (V, bool) {
	e, ok := r.byKey[k]
	return e.v, ok
}

// Len returns the number of entries.
func (r *Retention[K, V]) Len() int { return len(r.order) }

// Bytes returns the summed size of the entries.
func (r *Retention[K, V]) Bytes() int64 { return r.bytes }

// At returns the i-th entry in arrival order (0 is the oldest).
func (r *Retention[K, V]) At(i int) V { return r.byKey[r.order[i]].v }

// Put files v of the given size under k as the newest entry, replacing
// whatever k held. It does not evict; call Evict after.
func (r *Retention[K, V]) Put(k K, v V, size int64) {
	r.Delete(k)
	r.byKey[k] = retained[V]{v, size}
	r.order = append(r.order, k)
	r.bytes += size
}

// Delete removes k (a no-op when k is absent).
func (r *Retention[K, V]) Delete(k K) {
	e, ok := r.byKey[k]
	if !ok {
		return
	}
	for i, o := range r.order {
		if o == k {
			r.removeAt(i, e.size)
			return
		}
	}
}

func (r *Retention[K, V]) removeAt(i int, size int64) {
	delete(r.byKey, r.order[i])
	r.order = append(r.order[:i], r.order[i+1:]...)
	r.bytes -= size
}

// Over reports whether a cap is exceeded with more than one entry held:
// the newest entry alone is never over cap, however large.
func (r *Retention[K, V]) Over() bool {
	return len(r.order) > 1 &&
		((r.maxLen > 0 && len(r.order) > r.maxLen) || (r.maxBytes > 0 && r.bytes > r.maxBytes))
}

// Evict removes entries while Over holds, each time the oldest one that
// protected rejects; the newest entry is never a victim. When every
// older entry is protected, force evicts the oldest anyway, and
// otherwise Evict stops and returns ErrAllProtected. drop, when
// non-nil, sees each victim before its removal; an error from it keeps
// the victim, stops eviction and is returned. n counts the entries
// removed.
func (r *Retention[K, V]) Evict(protected func(V) bool, force bool, drop func(V) error) (n int, err error) {
	for r.Over() {
		victim := -1
		for i, k := range r.order[:len(r.order)-1] {
			if !protected(r.byKey[k].v) {
				victim = i
				break
			}
		}
		if victim < 0 {
			if !force {
				return n, ErrAllProtected
			}
			victim = 0
		}
		e := r.byKey[r.order[victim]]
		if drop != nil {
			if err := drop(e.v); err != nil {
				return n, err
			}
		}
		r.removeAt(victim, e.size)
		n++
	}
	return n, nil
}
