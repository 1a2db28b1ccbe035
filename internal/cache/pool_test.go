package cache

import (
	"reflect"
	"slices"
	"testing"

	"github.com/moatlab/melody/internal/mem"
	"github.com/moatlab/melody/internal/sim"
)

// settledCopy returns a copy of c with every set's share of the
// pending preload spans written, leaving c itself lazy.
func settledCopy(c *Cache) *Cache {
	d := *c
	d.slot = slices.Clone(c.slot)
	d.owner = slices.Clone(c.owner)
	d.lines = slices.Clone(c.lines)
	d.ready = slices.Clone(c.ready)
	d.dirty = slices.Clone(c.dirty)
	d.tick = slices.Clone(c.tick)
	d.spans = slices.Clone(c.spans)
	d.settle()
	return &d
}

// insertLoop is the reference PreloadRange is measured against.
func insertLoop(c *Cache, addr, n uint64) {
	for i := uint64(0); i < n; i++ {
		c.Insert(addr+i*mem.LineSize, 0, false)
	}
}

// entryView is one entry as the cache's behaviour sees it: invalid
// entries are all alike, whatever stale data they hold.
type entryView struct {
	line  uint64
	ready float64
	dirty bool
	tick  uint64
}

// cacheView is a cache's state set by set, way by way, independent of
// which pool block holds each set, plus its clock and statistics. A set
// without storage reads as all invalid, so c must have no pending
// preload spans (see settledCopy).
type cacheView struct {
	sets                [][]entryView
	clock, hits, misses uint64
}

func view(c *Cache) cacheView {
	v := cacheView{sets: make([][]entryView, c.sets), clock: c.clock, hits: c.hits, misses: c.misses}
	for s := range v.sets {
		v.sets[s] = make([]entryView, c.ways)
		if c.slot[s] == 0 {
			continue
		}
		base := int(c.slot[s]-1) * c.ways
		for w := range v.sets[s] {
			if e := base + w; c.lines[e] != 0 {
				v.sets[s][w] = entryView{c.lines[e], c.ready[e], c.dirty[e], c.tick[e]}
			}
		}
	}
	return v
}

// TestPreloadRangeMatchesInsertLoop drives two caches through the same
// random preload sequence — overlapping ranges, ranges larger than a
// set can hold, unaligned bases, and probes, inserts and invalidations
// between them — one with PreloadRange and one with the Insert loop,
// and requires the first, with every pending set written, to hold the
// same state as the second after every step.
func TestPreloadRangeMatchesInsertLoop(t *testing.T) {
	r := sim.NewRand(11)
	for trial := 0; trial < 300; trial++ {
		ways := 1 + int(r.Uint64n(16))
		sets := 1 + r.Uint64n(64)
		size := sets * uint64(ways) * mem.LineSize
		got, want := New(size, ways), New(size, ways)
		if trial%3 == 0 {
			// Start from a reset cache whose pool holds stale entries.
			for _, c := range []*Cache{got, want} {
				insertLoop(c, 0, sets*uint64(ways))
				c.Reset()
			}
		}
		lines := 4 * sets * uint64(ways)
		for step := 0; step < 6; step++ {
			addr := r.Uint64n(lines)*mem.LineSize + r.Uint64n(mem.LineSize)
			n := r.Uint64n(2*sets*uint64(ways) + 2)
			switch r.Uint64n(8) {
			case 0:
				a := r.Uint64n(lines) * mem.LineSize
				got.Probe(a)
				want.Probe(a)
			case 1:
				a := r.Uint64n(lines) * mem.LineSize
				got.Insert(a, 5, true)
				want.Insert(a, 5, true)
			case 2:
				a := r.Uint64n(lines) * mem.LineSize
				got.Invalidate(a)
				want.Invalidate(a)
			}
			got.PreloadRange(addr, n)
			insertLoop(want, addr, n)
			if !reflect.DeepEqual(view(settledCopy(got)), view(want)) {
				t.Fatalf("trial %d step %d (%d sets x %d ways, preload %#x+%d lines): PreloadRange state differs from the Insert loop",
					trial, step, sets, ways, addr, n)
			}
		}
	}
}

// TestLazyPreloadReportsLikeInsertLoop runs random mixes of every
// cache operation on a cache that preloads lazily and on a reference
// that preloads with the Insert loop, and requires every call to
// report the same thing. The two caches hand out pool blocks in
// different orders, so entry handles are compared only through what
// ReadyAt and IsDirty report for the handle each cache returned; a set
// keeps its block until Reset, so a pair of handles names the same set
// and way in both caches for the rest of the round. Five
// rounds separated by Resets reuse the pool, some with spans still
// pending. Rounds begin with runs of preloads (several spans,
// overlapping ones, ranges larger than the cache, invalidations and
// peeks between them) and continue with a mix in which preloads recur.
func TestLazyPreloadReportsLikeInsertLoop(t *testing.T) {
	r := sim.NewRand(23)
	type handles struct{ got, want int }
	for trial := 0; trial < 200; trial++ {
		ways := 1 + int(r.Uint64n(16))
		sets := 1 + r.Uint64n(64)
		size := sets * uint64(ways) * mem.LineSize
		got, want := New(size, ways), New(size, ways)
		capacity := sets * uint64(ways)
		lines := 8 * capacity
		step := 0
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("trial %d step %d (%d sets x %d ways): "+format,
				append([]any{trial, step, sets, ways}, args...)...)
		}
		preload := func() {
			addr := r.Uint64n(lines)*mem.LineSize + r.Uint64n(mem.LineSize)
			n := r.Uint64n(2*capacity + 2)
			got.PreloadRange(addr, n)
			insertLoop(want, addr, n)
		}
		var entries []handles
		lookup := func(name string, g, w func(uint64) (int, bool), a uint64) {
			t.Helper()
			ge, gh := g(a)
			we, wh := w(a)
			if gh != wh || (ge < 0) != (we < 0) {
				fail("%s = %d %v, want %d %v", name, ge, gh, we, wh)
			}
			if gh {
				if got.ReadyAt(ge) != want.ReadyAt(we) || got.IsDirty(ge) != want.IsDirty(we) {
					fail("%s hit reads ready %v dirty %v, want %v %v", name,
						got.ReadyAt(ge), got.IsDirty(ge), want.ReadyAt(we), want.IsDirty(we))
				}
				entries = append(entries, handles{ge, we})
			}
		}
		for round := 0; round < 5; round++ {
			if round > 0 {
				got.Reset()
				want.Reset()
			}
			entries = entries[:0]
			for k := r.Uint64n(4); k > 0; k-- {
				preload()
				switch r.Uint64n(4) {
				case 0:
					a := r.Uint64n(lines) * mem.LineSize
					if g, w := got.Invalidate(a), want.Invalidate(a); g != w {
						fail("Invalidate = %+v, want %+v", g, w)
					}
				case 1:
					lookup("Peek", got.Peek, want.Peek, r.Uint64n(lines)*mem.LineSize)
				}
			}
			for ops := r.Uint64n(300); ops > 0; ops-- {
				step++
				a := r.Uint64n(lines) * mem.LineSize
				switch r.Uint64n(7) {
				case 0, 1:
					lookup("Probe", got.Probe, want.Probe, a)
				case 2:
					lookup("Peek", got.Peek, want.Peek, a)
				case 3:
					ready, dirty := float64(step), step%3 == 0
					if g, w := got.Insert(a, ready, dirty), want.Insert(a, ready, dirty); g != w {
						fail("Insert = %+v, want %+v", g, w)
					}
				case 4:
					if g, w := got.Invalidate(a), want.Invalidate(a); g != w {
						fail("Invalidate = %+v, want %+v", g, w)
					}
				case 5:
					if len(entries) > 0 {
						h := entries[r.Uint64n(uint64(len(entries)))]
						if r.Uint64n(2) == 0 {
							got.SetReady(h.got, float64(step)/2)
							want.SetReady(h.want, float64(step)/2)
						} else {
							got.MarkDirty(h.got)
							want.MarkDirty(h.want)
						}
						if g, w := got.ReadyAt(h.got), want.ReadyAt(h.want); g != w {
							fail("ReadyAt(%d) = %v, want %v", h.got, g, w)
						}
						if g, w := got.IsDirty(h.got), want.IsDirty(h.want); g != w {
							fail("IsDirty(%d) = %v, want %v", h.got, g, w)
						}
					}
				case 6:
					preload()
				}
				if got.Hits() != want.Hits() || got.Misses() != want.Misses() {
					fail("hits/misses = %d/%d, want %d/%d", got.Hits(), got.Misses(), want.Hits(), want.Misses())
				}
			}
			if !reflect.DeepEqual(view(settledCopy(got)), view(want)) {
				fail("round %d ends in a different state", round)
			}
		}
	}
}

// exercise runs a seeded mix of every cache operation and returns
// what each one reported.
func exercise(c *Cache, seed uint64) []any {
	r := sim.NewRand(seed)
	span := uint64(c.sets*c.ways) * 3
	var out []any
	c.PreloadRange(r.Uint64n(span)*mem.LineSize, uint64(c.sets*c.ways)/2)
	for i := 0; i < 2000; i++ {
		a := r.Uint64n(span) * mem.LineSize
		switch r.Uint64n(5) {
		case 0, 1:
			e, hit := c.Probe(a)
			if hit {
				c.SetReady(e, c.ReadyAt(e)+1)
				out = append(out, e, c.ReadyAt(e), c.IsDirty(e))
			}
			out = append(out, hit)
		case 2:
			out = append(out, c.Insert(a, float64(i), i%3 == 0))
		case 3:
			e, hit := c.Peek(a)
			if hit {
				c.MarkDirty(e)
			}
			out = append(out, e, hit)
		case 4:
			out = append(out, c.Invalidate(a))
		}
	}
	return append(out, c.Hits(), c.Misses())
}

// TestResetMatchesNew requires a Reset cache to behave exactly like a
// new one, entry handles included: a Reset pool hands blocks out again
// from the first. It checks a Reset after every set was touched, a
// Reset after settle wrote every set, and many Resets in a row, each
// after a different mix of dirty lines and readiness times, so that
// reused blocks hold stale ready, dirty and tick values that must
// never show.
func TestResetMatchesNew(t *testing.T) {
	const size, ways = 16 << 10, 4
	fresh := New(size, ways)
	wantOut := exercise(fresh, 5)
	wantView := view(settledCopy(fresh))

	check := func(name string, c *Cache) {
		t.Helper()
		got := exercise(c, 5)
		if !reflect.DeepEqual(got, wantOut) {
			t.Fatalf("%s: operations report differently from a new cache", name)
		}
		if !reflect.DeepEqual(view(settledCopy(c)), wantView) {
			t.Fatalf("%s: state differs from a new cache", name)
		}
	}

	c := New(size, ways)
	for s := 0; s < c.Sets(); s++ {
		c.Insert(uint64(s)*mem.LineSize, float64(s), true)
	}
	if len(c.owner) != c.Sets() {
		t.Fatalf("%d of %d sets touched", len(c.owner), c.Sets())
	}
	c.Reset()
	check("every set touched", c)

	c = New(size, ways)
	c.PreloadRange(0, uint64(c.Sets()))
	c.settle()
	if len(c.owner) != c.Sets() {
		t.Fatalf("settle left %d of %d sets without storage", c.Sets()-len(c.owner), c.Sets())
	}
	c.Reset()
	check("after settle", c)

	c = New(size, ways)
	for round := uint64(0); round < 50; round++ {
		exercise(c, 100+round)
		c.Reset()
		check("reused pool", c)
		c.Reset()
	}
}

// BenchmarkCachePreload preloads an EMR-sized LLC (160 MB, 16 ways) to
// the 85% that Machine.Preload allows, from a reset cache. The preload
// only records its span; BenchmarkCachePreloadTouch times the set fills.
func BenchmarkCachePreload(b *testing.B) {
	c := New(160<<20, 16)
	n := uint64(float64(c.Sets()*c.Ways()) * 0.85)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reset()
		c.PreloadRange(1<<32, n)
	}
}

// BenchmarkCachePreloadTouch is BenchmarkCachePreload followed by 50k
// Probes at random lines of the preloaded range, each of which writes
// its set's share of the span on first touch.
func BenchmarkCachePreloadTouch(b *testing.B) {
	c := New(160<<20, 16)
	n := uint64(float64(c.Sets()*c.Ways()) * 0.85)
	r := sim.NewRand(1)
	addrs := make([]uint64, 50_000)
	for i := range addrs {
		addrs[i] = 1<<32 + r.Uint64n(n)*mem.LineSize
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reset()
		c.PreloadRange(1<<32, n)
		for _, a := range addrs {
			c.Probe(a)
		}
	}
}

// BenchmarkCacheAccess times the EMR hierarchy's cache work per
// access: a 48 KB/8-way L1, a 2 MB/16-way L2 and a 160 MB/16-way LLC,
// reset and preloaded as Machine.Preload does (LLC to 85%, L2 to half),
// then driven by 200k accesses, after one untimed pass has grown the
// set pools. Seven in ten accesses go to Zipf-chosen lines of a 256 MB
// region, the rest walk a sequential stream. Each access probes down
// the hierarchy and inserts at every level that missed, and peeks the
// next line in L2 and the LLC as a prefetcher would.
func BenchmarkCacheAccess(b *testing.B) {
	l1, l2, l3 := New(48<<10, 8), New(2<<20, 16), New(160<<20, 16)
	const base, region = 1 << 32, 1 << 22 // lines
	r := sim.NewRand(1)
	z := sim.NewZipf(r, region, 0.99)
	addrs := make([]uint64, 200_000)
	stream := uint64(region)
	for i := range addrs {
		if r.Uint64n(10) < 7 {
			addrs[i] = (base + z.Next()) * mem.LineSize
		} else {
			addrs[i] = (base + stream) * mem.LineSize
			stream++
		}
	}
	llc := uint64(float64(l3.Sets()*l3.Ways()) * 0.85)
	pass := func() {
		for _, c := range []*Cache{l1, l2, l3} {
			c.Reset()
		}
		l3.PreloadRange(base*mem.LineSize, llc)
		l2.PreloadRange(base*mem.LineSize, uint64(l2.Sets()*l2.Ways())/2)
		for k, a := range addrs {
			if _, hit := l1.Probe(a); !hit {
				if _, hit := l2.Probe(a); !hit {
					if _, hit := l3.Probe(a); !hit {
						l3.Insert(a, float64(k), k%5 == 0)
					}
					l2.Insert(a, float64(k), false)
				}
				l1.Insert(a, float64(k), false)
			}
			if _, hit := l2.Peek(a + mem.LineSize); !hit {
				l3.Peek(a + mem.LineSize)
			}
		}
	}
	pass() // grow the set pools once, as a reused machine has
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(addrs)), "ns/access")
}
