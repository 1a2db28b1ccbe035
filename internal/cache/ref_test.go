package cache

import (
	"slices"
	"testing"

	"github.com/moatlab/melody/internal/mem"
	"github.com/moatlab/melody/internal/sim"
)

// refCache is the cache as it was before lookups left a cursor, victims
// were chosen by tick alone and first-touch fills wrote only surviving
// lines: every lookup scans its set, Insert scans it again and prefers
// the last invalid way, else the LRU one, and fill replays the Insert
// loop for every line of a set's share of the pending spans. It shares
// Cache's storage, so view reads both alike, and re-implements every
// method that decides where a line goes.
type refCache struct{ Cache }

func newRef(sizeBytes uint64, ways int) *refCache { return &refCache{*New(sizeBytes, ways)} }

func (c *refCache) base(addr uint64) int {
	s := c.set(addr)
	if b := c.slot[s]; b != 0 {
		return int(b-1) * c.ways
	}
	return c.claim(s)
}

func (c *refCache) find(addr uint64) int {
	s := c.set(addr)
	if b := c.slot[s]; b != 0 {
		return int(b-1) * c.ways
	}
	if len(c.spans) == 0 {
		return -1
	}
	return c.claim(s)
}

func (c *refCache) claim(s int) int {
	b := len(c.owner)
	c.owner = append(c.owner, uint32(s))
	c.slot[s] = uint32(b) + 1
	base, end := b*c.ways, (b+1)*c.ways
	if end > len(c.lines) {
		grow := min(max(len(c.lines), c.ways), c.sets*c.ways-len(c.lines))
		c.lines = append(c.lines, make([]uint64, grow)...)
		c.ready = append(c.ready, make([]float64, grow)...)
		c.dirty = append(c.dirty, make([]bool, grow)...)
		c.tick = append(c.tick, make([]uint64, grow)...)
	}
	clear(c.lines[base:end])
	clear(c.ready[base:end])
	clear(c.dirty[base:end])
	clear(c.tick[base:end])
	if len(c.spans) > 0 {
		c.fill(s, base)
	}
	return base
}

func (c *refCache) Probe(addr uint64) (entry int, hit bool) {
	if base := c.find(addr); base >= 0 {
		line := addr/mem.LineSize + 1
		for e, l := range c.lines[base : base+c.ways] {
			if l == line {
				c.clock++
				c.tick[base+e] = c.clock
				c.hits++
				return base + e, true
			}
		}
	}
	c.misses++
	return -1, false
}

func (c *refCache) Peek(addr uint64) (entry int, hit bool) {
	if base := c.find(addr); base >= 0 {
		line := addr/mem.LineSize + 1
		for e, l := range c.lines[base : base+c.ways] {
			if l == line {
				return base + e, true
			}
		}
	}
	return -1, false
}

func (c *refCache) Insert(addr uint64, readyAt float64, dirty bool) Victim {
	c.clock++
	return c.insert(c.base(addr), addr, readyAt, dirty, c.clock)
}

func (c *refCache) insert(base int, addr uint64, readyAt float64, dirty bool, tick uint64) Victim {
	line := addr/mem.LineSize + 1
	victimWay := 0
	oldest := ^uint64(0)
	for w := 0; w < c.ways; w++ {
		e := base + w
		if c.lines[e] == line {
			c.tick[e] = tick
			if readyAt < c.ready[e] {
				c.ready[e] = readyAt
			}
			if dirty {
				c.dirty[e] = true
			}
			return Victim{}
		}
		if c.lines[e] == 0 {
			victimWay = w
			oldest = 0
		} else if c.tick[e] < oldest {
			victimWay = w
			oldest = c.tick[e]
		}
	}
	e := base + victimWay
	var v Victim
	if c.lines[e] != 0 {
		v = Victim{Addr: (c.lines[e] - 1) * mem.LineSize, Dirty: c.dirty[e], Evicted: true}
	}
	c.lines[e] = line
	c.ready[e] = readyAt
	c.dirty[e] = dirty
	c.tick[e] = tick
	return v
}

func (c *refCache) PreloadRange(addr, n uint64) {
	if n == 0 {
		return
	}
	first := addr / mem.LineSize
	lazy := len(c.owner) == 0
	end := uint64(0)
	for _, p := range c.spans {
		if first < p.first+p.n && p.first < first+n {
			lazy = false
		}
		end = p.clock0 + p.n
	}
	if lazy && c.clock == end {
		c.spans = append(c.spans, span{first: first, n: n, clock0: c.clock})
		c.clock += n
		return
	}
	c.settle()
	for i := uint64(0); i < n; i++ {
		c.Insert(addr+i*mem.LineSize, 0, false)
	}
}

func (c *refCache) settle() {
	if len(c.spans) == 0 {
		return
	}
	for s, b := range c.slot {
		if b == 0 {
			c.claim(s)
		}
	}
	c.spans = c.spans[:0]
}

func (c *refCache) fill(s, base int) {
	sets := uint64(c.sets)
	for _, p := range c.spans {
		w := c.ways - 1
		for i := (uint64(s) + sets - p.first%sets) % sets; i < p.n; i += sets {
			for w >= 0 && c.lines[base+w] != 0 {
				w--
			}
			if w < 0 {
				c.insert(base, (p.first+i)*mem.LineSize, 0, false, p.clock0+i+1)
				continue
			}
			e := base + w
			c.lines[e] = p.first + i + 1
			c.ready[e] = 0
			c.dirty[e] = false
			c.tick[e] = p.clock0 + i + 1
			w--
		}
	}
}

func (c *refCache) Invalidate(addr uint64) Victim {
	if e, ok := c.Peek(addr); ok {
		v := Victim{Addr: addr / mem.LineSize * mem.LineSize, Dirty: c.dirty[e], Evicted: true}
		c.lines[e] = 0
		c.dirty[e] = false
		c.ready[e] = 0
		return v
	}
	return Victim{}
}

// settledView is view of a copy of c with every pending set written by
// the reference fill.
func (c *refCache) settledView() cacheView {
	d := &refCache{c.Cache}
	d.slot = slices.Clone(c.slot)
	d.owner = slices.Clone(c.owner)
	d.lines = slices.Clone(c.lines)
	d.ready = slices.Clone(c.ready)
	d.dirty = slices.Clone(c.dirty)
	d.tick = slices.Clone(c.tick)
	d.spans = slices.Clone(c.spans)
	d.settle()
	return view(&d.Cache)
}

// sameView is reflect.DeepEqual for views, at a fraction of its cost.
func sameView(a, b cacheView) bool {
	return a.clock == b.clock && a.hits == b.hits && a.misses == b.misses &&
		slices.EqualFunc(a.sets, b.sets, func(x, y []entryView) bool { return slices.Equal(x, y) })
}

// TestCacheMatchesReference drives the cache and refCache through the
// same random interleavings over random geometries and requires every
// call to return the same thing and both to hold the same state, with
// and without the pending preloads written, after every step. Most
// addresses fall in two hot sets, and an Insert usually installs a line
// whose lookup missed: sometimes right after the miss, sometimes after
// lookups and inserts of other lines of the same set, an Invalidate or
// a SetReady or MarkDirty in between. Rounds are separated by Resets
// and begin with runs of preloads: several spans, overlapping ones,
// unaligned ones and ranges larger than the cache.
func TestCacheMatchesReference(t *testing.T) {
	r := sim.NewRand(37)
	for trial := 0; trial < 120; trial++ {
		ways := 1 + int(r.Uint64n(16))
		sets := 1 + r.Uint64n(64)
		capacity := sets * uint64(ways)
		got, want := New(capacity*mem.LineSize, ways), newRef(capacity*mem.LineSize, ways)
		hot := [2]uint64{r.Uint64n(sets), r.Uint64n(sets)}
		addr := func() uint64 {
			s := r.Uint64n(sets)
			if r.Uint64n(4) != 0 {
				s = hot[r.Uint64n(2)]
			}
			return (r.Uint64n(4*uint64(ways)+1)*sets+s)*mem.LineSize + r.Uint64n(mem.LineSize)
		}
		step := 0
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("trial %d step %d (%d sets x %d ways): "+format,
				append([]any{trial, step, sets, ways}, args...)...)
		}
		preload := func() {
			a := r.Uint64n(4*capacity)*mem.LineSize + r.Uint64n(mem.LineSize)
			n := r.Uint64n(2*capacity + 2)
			got.PreloadRange(a, n)
			want.PreloadRange(a, n)
		}
		var missed []uint64 // lookups that missed, most recent last
		var entries []int   // handles of hits
		lookup := func(name string, g, w func(uint64) (int, bool)) {
			t.Helper()
			a := addr()
			ge, gh := g(a)
			we, wh := w(a)
			if ge != we || gh != wh {
				fail("%s(%#x) = %d %v, want %d %v", name, a, ge, gh, we, wh)
			}
			if gh {
				entries = append(entries, ge)
			} else {
				missed = append(missed, a)
			}
		}
		for round := 0; round < 4; round++ {
			if round > 0 {
				got.Reset()
				want.Reset()
			}
			missed, entries = missed[:0], entries[:0]
			for k := r.Uint64n(4); k > 0; k-- {
				preload()
			}
			for ops := 50 + r.Uint64n(150); ops > 0; ops-- {
				step++
				switch op := r.Uint64n(16); {
				case op < 4:
					lookup("Probe", got.Probe, want.Probe)
				case op < 6:
					lookup("Peek", got.Peek, want.Peek)
				case op < 11:
					a := addr()
					if len(missed) > 0 && op < 10 {
						// The latest miss, or one from before other
						// operations in the same set.
						i := len(missed) - 1
						if op == 9 {
							i = int(r.Uint64n(uint64(len(missed))))
						}
						a = missed[i]
					}
					ready, dirty := float64(step), step%3 == 0
					if g, w := got.Insert(a, ready, dirty), want.Insert(a, ready, dirty); g != w {
						fail("Insert(%#x) = %+v, want %+v", a, g, w)
					}
				case op == 11:
					a := addr()
					if g, w := got.Invalidate(a), want.Invalidate(a); g != w {
						fail("Invalidate(%#x) = %+v, want %+v", a, g, w)
					}
				case op == 12 || op == 13:
					if len(entries) == 0 {
						continue
					}
					e := entries[r.Uint64n(uint64(len(entries)))]
					if op == 12 {
						got.SetReady(e, float64(step)/2)
						want.SetReady(e, float64(step)/2)
					} else {
						got.MarkDirty(e)
						want.MarkDirty(e)
					}
					if got.ReadyAt(e) != want.ReadyAt(e) || got.IsDirty(e) != want.IsDirty(e) {
						fail("entry %d reads ready %v dirty %v, want %v %v", e,
							got.ReadyAt(e), got.IsDirty(e), want.ReadyAt(e), want.IsDirty(e))
					}
				case op == 14:
					preload()
				default: // now and then a Reset within a round
					if r.Uint64n(4) == 0 {
						got.Reset()
						want.Reset()
						missed, entries = missed[:0], entries[:0]
					}
				}
				if got.Hits() != want.Hits() || got.Misses() != want.Misses() {
					fail("hits/misses = %d/%d, want %d/%d", got.Hits(), got.Misses(), want.Hits(), want.Misses())
				}
				if !sameView(view(got), view(&want.Cache)) || !slices.Equal(got.owner, want.owner) {
					fail("sets with storage differ")
				}
				if !sameView(view(settledCopy(got)), want.settledView()) {
					fail("state differs once pending preloads are written")
				}
			}
		}
	}
}
