package cache

import (
	"reflect"
	"slices"
	"testing"

	"github.com/moatlab/melody/internal/mem"
	"github.com/moatlab/melody/internal/sim"
)

// rawState is every field PreloadRange must leave as the Insert loop
// does.
type rawState struct {
	lines, tick         []uint64
	ready               []float64
	dirty               []bool
	clock, hits, misses uint64
}

func raw(c *Cache) rawState {
	return rawState{c.lines, c.tick, c.ready, c.dirty, c.clock, c.hits, c.misses}
}

// settledCopy returns a copy of c with every set's share of the
// pending preload spans written, leaving c itself lazy.
func settledCopy(c *Cache) *Cache {
	d := *c
	d.lines = slices.Clone(c.lines)
	d.ready = slices.Clone(c.ready)
	d.dirty = slices.Clone(c.dirty)
	d.tick = slices.Clone(c.tick)
	d.spans = slices.Clone(c.spans)
	d.stamp = slices.Clone(c.stamp)
	d.settle()
	return &d
}

// insertLoop is the reference PreloadRange is measured against.
func insertLoop(c *Cache, addr, n uint64) {
	for i := uint64(0); i < n; i++ {
		c.Insert(addr+i*mem.LineSize, 0, false)
	}
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
			// Start from a reset cache with stale entries.
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
			if !reflect.DeepEqual(raw(settledCopy(got)), raw(want)) {
				t.Fatalf("trial %d step %d (%d sets x %d ways, preload %#x+%d lines): PreloadRange state differs from the Insert loop",
					trial, step, sets, ways, addr, n)
			}
		}
	}
}

// TestLazyPreloadReportsLikeInsertLoop runs random mixes of every
// cache operation on a cache that preloads lazily and on a reference
// that preloads with the Insert loop, and requires every call to
// report the same thing. Five rounds run in the first epoch, the last
// one before the 16-bit wrap and the first three after it, so stale
// set stamps meet the wrap and some rounds cross it with spans still
// pending. Rounds begin with runs of preloads (several spans, overlapping ones,
// ranges larger than the cache, invalidations and peeks between them)
// and continue with a mix in which preloads recur.
func TestLazyPreloadReportsLikeInsertLoop(t *testing.T) {
	r := sim.NewRand(23)
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
		var entries []int
		for round := 0; round < 5; round++ {
			if round == 1 {
				// Skip to the last epoch but one, as 65533 Resets
				// would: set stamps from the first epoch survive.
				got.tag = maxTag - 1<<lineBits
				want.tag = got.tag
			}
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
					a := r.Uint64n(lines) * mem.LineSize
					ge, gh := got.Peek(a)
					we, wh := want.Peek(a)
					if ge != we || gh != wh {
						fail("Peek = %d %v, want %d %v", ge, gh, we, wh)
					}
				}
			}
			for ops := r.Uint64n(300); ops > 0; ops-- {
				step++
				a := r.Uint64n(lines) * mem.LineSize
				switch r.Uint64n(7) {
				case 0, 1:
					ge, gh := got.Probe(a)
					we, wh := want.Probe(a)
					if ge != we || gh != wh {
						fail("Probe = %d %v, want %d %v", ge, gh, we, wh)
					}
					if gh {
						entries = append(entries, ge)
					}
				case 2:
					ge, gh := got.Peek(a)
					we, wh := want.Peek(a)
					if ge != we || gh != wh {
						fail("Peek = %d %v, want %d %v", ge, gh, we, wh)
					}
					if gh {
						entries = append(entries, ge)
					}
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
						e := entries[r.Uint64n(uint64(len(entries)))]
						if r.Uint64n(2) == 0 {
							got.SetReady(e, float64(step)/2)
							want.SetReady(e, float64(step)/2)
						} else {
							got.MarkDirty(e)
							want.MarkDirty(e)
						}
						if g, w := got.ReadyAt(e), want.ReadyAt(e); g != w {
							fail("ReadyAt(%d) = %v, want %v", e, g, w)
						}
						if g, w := got.IsDirty(e), want.IsDirty(e); g != w {
							fail("IsDirty(%d) = %v, want %v", e, g, w)
						}
					}
				case 6:
					preload()
				}
				if got.Hits() != want.Hits() || got.Misses() != want.Misses() {
					fail("hits/misses = %d/%d, want %d/%d", got.Hits(), got.Misses(), want.Hits(), want.Misses())
				}
			}
			gv, gs := view(settledCopy(got))
			wv, ws := view(want)
			if !reflect.DeepEqual(gv, wv) || gs != ws {
				fail("round %d ends in a different state", round)
			}
		}
		if got.tag != 3<<lineBits {
			t.Fatalf("tag = %#x after five rounds, want the third epoch past the wrap", got.tag)
		}
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

func view(c *Cache) ([]entryView, [3]uint64) {
	out := make([]entryView, len(c.lines))
	for e, l := range c.lines {
		if l >= c.tag {
			out[e] = entryView{l & lineMask, c.ready[e], c.dirty[e], c.tick[e]}
		}
	}
	return out, [3]uint64{c.clock, c.hits, c.misses}
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
// new one: in the next epoch, in the last epoch before the 16-bit
// epoch wraps, and across the wrap, where stale lines tagged with the
// highest epoch must not come back.
func TestResetMatchesNew(t *testing.T) {
	const size, ways = 16 << 10, 4
	fresh := New(size, ways)
	wantOut := exercise(fresh, 5)
	wantView, wantScalars := view(fresh)

	check := func(name string, c *Cache) {
		t.Helper()
		got := exercise(c, 5)
		if !reflect.DeepEqual(got, wantOut) {
			t.Fatalf("%s: operations report differently from a new cache", name)
		}
		v, s := view(c)
		if !reflect.DeepEqual(v, wantView) || s != wantScalars {
			t.Fatalf("%s: state differs from a new cache", name)
		}
	}

	c := New(size, ways)
	exercise(c, 9)
	c.Reset()
	check("next epoch", c)

	c.tag = maxTag - 1<<lineBits
	exercise(c, 9)
	c.Reset()
	if c.tag != maxTag {
		t.Fatalf("tag = %#x, want the last epoch %#x", c.tag, uint64(maxTag))
	}
	check("last epoch", c)

	exercise(c, 9)
	c.Reset()
	if c.tag != 1<<lineBits {
		t.Fatalf("tag = %#x after wraparound, want the first epoch", c.tag)
	}
	check("after wraparound", c)
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
