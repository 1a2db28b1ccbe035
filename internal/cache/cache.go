// Package cache implements the set-associative cache model used for the
// simulated L1D/L2/LLC hierarchy. Lines carry a readiness timestamp so
// in-flight fills (demand misses and prefetches) live in the cache as
// *pending* lines: a hit on a pending line is the paper's "delayed hit",
// the mechanism behind CXL-induced cache-level stalls (§5.4).
package cache

import "github.com/moatlab/melody/internal/mem"

// Cache is one level of the hierarchy. Not safe for concurrent use.
type Cache struct {
	sets, ways int

	// Per-entry state, indexed by set*ways+way. A line's entry stores
	// the full line number (addr / LineSize) + 1 in its low lineBits, so
	// evictions can reconstruct victim addresses, tagged with the
	// cache's current epoch above them. An entry below tag is invalid:
	// Reset starts a new epoch instead of clearing the arrays.
	lines []uint64
	ready []float64 // time the line's data is available (ns)
	dirty []bool
	tick  []uint64 // LRU clock values

	tag   uint64 // current epoch << lineBits; never 0
	clock uint64

	hits, misses uint64

	// Bulk PreloadRange spans since Reset not yet written to every set.
	// A set whose stamp is not the current epoch has not had its share
	// of them written; the first lookup that reaches it writes it.
	// Once any set has been written, settled is set and later preloads
	// go through Insert.
	spans   []span
	stamp   []uint16
	settled bool
}

// Line numbers occupy the low lineBits of an entry, which bounds
// addresses below 2^54 bytes; the epoch takes the 16 bits above.
const (
	lineBits = 48
	lineMask = 1<<lineBits - 1
	maxTag   = (1<<16 - 1) << lineBits
)

// span is a preloaded range: n consecutive line numbers from first,
// with the clock value just before its first line.
type span struct{ first, n, clock0 uint64 }

// New builds a cache of the given total size and associativity. Size is
// rounded down to a whole number of sets. It panics if the geometry is
// degenerate.
func New(sizeBytes uint64, ways int) *Cache {
	if ways <= 0 || sizeBytes < uint64(ways)*mem.LineSize {
		panic("cache: invalid geometry")
	}
	sets := int(sizeBytes / mem.LineSize / uint64(ways))
	if sets < 1 {
		sets = 1
	}
	n := sets * ways
	return &Cache{
		sets:  sets,
		ways:  ways,
		lines: make([]uint64, n),
		ready: make([]float64, n),
		dirty: make([]bool, n),
		tick:  make([]uint64, n),
		stamp: make([]uint16, sets),
		tag:   1 << lineBits,
	}
}

// Reset invalidates every line and clears statistics in O(1): it moves
// to the next epoch, which turns every stored entry invalid. Only when
// the 16-bit epoch wraps are the line entries and set stamps cleared.
func (c *Cache) Reset() {
	if c.tag == maxTag {
		clear(c.lines)
		clear(c.stamp)
		c.tag = 0
	}
	c.tag += 1 << lineBits
	c.clock = 0
	c.hits, c.misses = 0, 0
	c.spans = c.spans[:0]
	c.settled = false
}

// Sets and Ways expose the geometry.
func (c *Cache) Sets() int { return c.sets }
func (c *Cache) Ways() int { return c.ways }

// Hits and Misses expose lookup statistics.
func (c *Cache) Hits() uint64   { return c.hits }
func (c *Cache) Misses() uint64 { return c.misses }

// set returns the set index for addr. The set bits are taken directly
// above the line offset; bank-style hashing is unnecessary at cache
// granularity.
func (c *Cache) set(addr uint64) int {
	return int((addr / mem.LineSize) % uint64(c.sets))
}

// base returns the first entry of addr's set, after writing the set's
// share of the pending preload spans if it has not been written yet.
func (c *Cache) base(addr uint64) int {
	s := c.set(addr)
	if len(c.spans) > 0 && c.stamp[s] != uint16(c.tag>>lineBits) {
		c.fill(s)
	}
	return s * c.ways
}

// Probe looks addr up and returns the entry index on a hit. It counts
// hit/miss statistics and refreshes LRU state on hits.
func (c *Cache) Probe(addr uint64) (entry int, hit bool) {
	line := (addr/mem.LineSize + 1) | c.tag
	base := c.base(addr)
	for w := 0; w < c.ways; w++ {
		if c.lines[base+w] == line {
			c.clock++
			c.tick[base+w] = c.clock
			c.hits++
			return base + w, true
		}
	}
	c.misses++
	return -1, false
}

// Peek is Probe without statistics or LRU updates (for prefetcher
// filtering).
func (c *Cache) Peek(addr uint64) (entry int, hit bool) {
	line := (addr/mem.LineSize + 1) | c.tag
	base := c.base(addr)
	for w := 0; w < c.ways; w++ {
		if c.lines[base+w] == line {
			return base + w, true
		}
	}
	return -1, false
}

// ReadyAt returns when the entry's data is available.
func (c *Cache) ReadyAt(entry int) float64 { return c.ready[entry] }

// SetReady overrides the entry's availability time.
func (c *Cache) SetReady(entry int, t float64) { c.ready[entry] = t }

// MarkDirty marks the entry's line dirty.
func (c *Cache) MarkDirty(entry int) { c.dirty[entry] = true }

// IsDirty reports whether the entry is dirty.
func (c *Cache) IsDirty(entry int) bool { return c.dirty[entry] }

// Victim holds the line evicted by an Insert.
type Victim struct {
	Addr    uint64
	Dirty   bool
	Evicted bool
}

// Insert installs addr with the given readiness time, evicting the LRU
// way of its set if needed. Inserting an already-present line refreshes
// it in place (keeping its dirty bit).
func (c *Cache) Insert(addr uint64, readyAt float64, dirty bool) Victim {
	c.clock++
	return c.insert(c.base(addr), addr, readyAt, dirty, c.clock)
}

// insert is Insert into the set starting at entry base with the LRU
// tick given; the caller owns the clock.
func (c *Cache) insert(base int, addr uint64, readyAt float64, dirty bool, tick uint64) Victim {
	line := (addr/mem.LineSize + 1) | c.tag
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
		if c.lines[e] < c.tag {
			// Prefer invalid ways outright.
			victimWay = w
			oldest = 0
		} else if c.tick[e] < oldest {
			victimWay = w
			oldest = c.tick[e]
		}
	}
	e := base + victimWay
	var v Victim
	if c.lines[e] >= c.tag {
		v = Victim{Addr: (c.lines[e]&lineMask - 1) * mem.LineSize, Dirty: c.dirty[e], Evicted: true}
	}
	c.lines[e] = line
	c.ready[e] = readyAt
	c.dirty[e] = dirty
	c.tick[e] = tick
	return v
}

// PreloadRange installs the n consecutive lines starting at addr's line
// as clean lines ready at time 0, dropping any victims. Every later
// operation reports exactly what it would after
// Insert(addr+i*LineSize, 0, false) for i = 0..n-1 in order, and the
// clock advances by n. While nothing has been inserted since Reset
// but by preloads of disjoint ranges, and no set has been written yet,
// PreloadRange only records the span: each set receives its share on
// its first lookup (see fill), so a run pays only for the sets it
// touches. Otherwise it writes every pending set and runs the Insert
// loop.
func (c *Cache) PreloadRange(addr, n uint64) {
	if n == 0 {
		return
	}
	first := addr / mem.LineSize
	lazy := !c.settled
	end := uint64(0) // clock after the spans so far
	for _, p := range c.spans {
		if first < p.first+p.n && p.first < first+n {
			lazy = false
		}
		end = p.clock0 + p.n
	}
	if lazy && c.clock == end {
		c.spans = append(c.spans, span{first, n, c.clock})
		c.clock += n
		return
	}
	c.settle()
	for i := uint64(0); i < n; i++ {
		c.Insert(addr+i*mem.LineSize, 0, false)
	}
}

// settle writes every set's share of the pending spans and drops them;
// preloads go through Insert until the next Reset.
func (c *Cache) settle() {
	if len(c.spans) > 0 {
		epoch := uint16(c.tag >> lineBits)
		for s, st := range c.stamp {
			if st != epoch {
				c.fill(s)
			}
		}
		c.spans = c.spans[:0]
	}
	c.settled = true
}

// fill writes set s's share of every pending span, span by span in
// line order, where the Insert loop would have put it: line i of a
// span lands in the set's highest invalid way with tick clock0+i+1,
// and a full set falls back to insert's LRU choice. No line of a span
// can already be present: spans are disjoint and nothing else was
// inserted before them.
func (c *Cache) fill(s int) {
	c.stamp[s] = uint16(c.tag >> lineBits)
	c.settled = true
	sets := uint64(c.sets)
	base := s * c.ways
	for _, p := range c.spans {
		w := c.ways - 1
		for i := (uint64(s) + sets - p.first%sets) % sets; i < p.n; i += sets {
			for w >= 0 && c.lines[base+w] >= c.tag {
				w--
			}
			if w < 0 {
				c.insert(base, (p.first+i)*mem.LineSize, 0, false, p.clock0+i+1)
				continue
			}
			e := base + w
			c.lines[e] = (p.first + i + 1) | c.tag
			c.ready[e] = 0
			c.dirty[e] = false
			c.tick[e] = p.clock0 + i + 1
			w--
		}
	}
}

// Invalidate drops addr if present, returning its victim record.
func (c *Cache) Invalidate(addr uint64) Victim {
	if e, ok := c.Peek(addr); ok {
		v := Victim{Addr: addr / mem.LineSize * mem.LineSize, Dirty: c.dirty[e], Evicted: true}
		c.lines[e] = 0
		c.dirty[e] = false
		c.ready[e] = 0
		return v
	}
	return Victim{}
}
