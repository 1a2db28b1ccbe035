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

	// A set gets storage only when it is first touched after Reset: a
	// block of ways entries, handed out in touch order from the entry
	// arrays, which grow on demand and are reused across Resets.
	// slot[s] is 1 + set s's block, or 0 while s is untouched; owner
	// lists the touched sets so Reset clears only their slots. An entry
	// handle is block*ways+way. An entry stores the full line number
	// (addr / LineSize) + 1, so evictions can reconstruct victim
	// addresses; 0 marks it invalid.
	slot  []uint32
	owner []uint32
	lines []uint64
	ready []float64 // time the line's data is available (ns)
	dirty []bool
	tick  []uint64 // LRU clock values

	clock uint64

	hits, misses uint64

	// Bulk PreloadRange spans since Reset not yet written to every set.
	// An untouched set receives its share of them when its block is
	// handed out. Once any set has storage, later preloads go through
	// Insert.
	spans []span
}

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
	return &Cache{sets: sets, ways: ways, slot: make([]uint32, sets)}
}

// Reset invalidates every line and clears statistics. It costs one
// store per set touched since the last Reset; the touched sets' blocks
// return to the pool.
func (c *Cache) Reset() {
	for _, s := range c.owner {
		c.slot[s] = 0
	}
	c.owner = c.owner[:0]
	c.clock = 0
	c.hits, c.misses = 0, 0
	c.spans = c.spans[:0]
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

// base returns the first entry of addr's set, handing the set a block
// if it has none.
func (c *Cache) base(addr uint64) int {
	s := c.set(addr)
	if b := c.slot[s]; b != 0 {
		return int(b-1) * c.ways
	}
	return c.claim(s)
}

// find is base for lookups: an untouched set with no pending preload
// spans holds nothing, so it reports -1 without taking a block.
func (c *Cache) find(addr uint64) int {
	s := c.set(addr)
	if b := c.slot[s]; b != 0 {
		return int(b-1) * c.ways
	}
	if len(c.spans) == 0 {
		return -1
	}
	return c.claim(s)
}

// claim hands set s the next block, cleared, and writes the set's share
// of the pending preload spans into it.
func (c *Cache) claim(s int) int {
	b := len(c.owner)
	c.owner = append(c.owner, uint32(s))
	c.slot[s] = uint32(b) + 1
	base, end := b*c.ways, (b+1)*c.ways
	if end > len(c.lines) {
		// Double the pool, up to one block per set: append alone grows
		// large slices by a quarter, copying the pool many more times.
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

// Probe looks addr up and returns the entry index on a hit. It counts
// hit/miss statistics and refreshes LRU state on hits.
func (c *Cache) Probe(addr uint64) (entry int, hit bool) {
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

// Peek is Probe without statistics or LRU updates (for prefetcher
// filtering).
func (c *Cache) Peek(addr uint64) (entry int, hit bool) {
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
	if c.lines[e] != 0 {
		v = Victim{Addr: (c.lines[e] - 1) * mem.LineSize, Dirty: c.dirty[e], Evicted: true}
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
// but by preloads of disjoint ranges, and no set has storage yet,
// PreloadRange only records the span: each set receives its share when
// it is first touched (see fill), so a run pays only for the sets it
// touches. Otherwise it writes every pending set and runs the Insert
// loop.
func (c *Cache) PreloadRange(addr, n uint64) {
	if n == 0 {
		return
	}
	first := addr / mem.LineSize
	lazy := len(c.owner) == 0
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

// settle hands a block to every untouched set, which writes its share
// of the pending spans, and drops the spans.
func (c *Cache) settle() {
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

// fill writes set s's share of every pending span into its block at
// base, span by span in line order, where the Insert loop would have
// put it: line i of a span lands in the set's highest invalid way with
// tick clock0+i+1, and a full set falls back to insert's LRU choice.
// No line of a span can already be present: spans are disjoint and
// nothing else was inserted before them.
func (c *Cache) fill(s, base int) {
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
