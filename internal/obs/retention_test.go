package obs

import (
	"errors"
	"slices"
	"testing"
)

func TestRetention(t *testing.T) {
	// Values are the entries' protected flags.
	type put struct {
		key       string
		size      int64
		protected bool
	}
	errDrop := errors.New("drop failed")
	for _, c := range []struct {
		name     string
		maxLen   int
		maxBytes int64
		force    bool
		dropErr  error
		puts     []put
		want     []string // keys left, oldest first
		bytes    int64
		evicted  int
		err      error // from the last Evict
	}{
		{name: "oldest unprotected goes first", maxLen: 3,
			puts: []put{{"a", 1, true}, {"b", 1, false}, {"c", 1, false}, {"d", 1, false}},
			want: []string{"a", "c", "d"}, bytes: 3, evicted: 1},
		{name: "newest is never the victim", maxLen: 2, force: true,
			puts: []put{{"a", 1, true}, {"b", 1, true}, {"c", 1, false}},
			want: []string{"b", "c"}, bytes: 2, evicted: 1},
		{name: "byte cap evicts", maxBytes: 10,
			puts: []put{{"a", 6, false}, {"b", 6, false}},
			want: []string{"b"}, bytes: 6, evicted: 1},
		{name: "oversize newest entry stays", maxBytes: 10,
			puts: []put{{"a", 6, false}, {"b", 20, false}},
			want: []string{"b"}, bytes: 20, evicted: 1},
		{name: "all protected: force evicts the oldest", maxLen: 2, force: true,
			puts: []put{{"a", 1, true}, {"b", 1, true}, {"c", 1, true}},
			want: []string{"b", "c"}, bytes: 2, evicted: 1},
		{name: "all protected: refuse keeps every entry", maxLen: 2,
			puts: []put{{"a", 1, true}, {"b", 1, true}, {"c", 1, true}},
			want: []string{"a", "b", "c"}, bytes: 3, err: ErrAllProtected},
		{name: "replacing a key keeps the byte total exact", maxLen: 2,
			puts: []put{{"a", 5, false}, {"b", 3, false}, {"a", 7, false}},
			want: []string{"b", "a"}, bytes: 10},
		{name: "drop error keeps the victim", maxLen: 1, dropErr: errDrop,
			puts: []put{{"a", 1, false}, {"b", 1, false}},
			want: []string{"a", "b"}, bytes: 2, err: errDrop},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := NewRetention[string, bool](c.maxLen, c.maxBytes)
			evicted := 0
			var err error
			for _, p := range c.puts {
				r.Put(p.key, p.protected, p.size)
				var n int
				n, err = r.Evict(func(protected bool) bool { return protected }, c.force,
					func(bool) error { return c.dropErr })
				evicted += n
			}
			if !slices.Equal(r.order, c.want) {
				t.Errorf("keys = %v, want %v", r.order, c.want)
			}
			if r.Bytes() != c.bytes {
				t.Errorf("bytes = %d, want %d", r.Bytes(), c.bytes)
			}
			if evicted != c.evicted {
				t.Errorf("evicted %d, want %d", evicted, c.evicted)
			}
			if !errors.Is(err, c.err) {
				t.Errorf("Evict err = %v, want %v", err, c.err)
			}
			for _, k := range c.want {
				if _, ok := r.Get(k); !ok {
					t.Errorf("Get(%q) missed a retained key", k)
				}
			}
		})
	}
}
