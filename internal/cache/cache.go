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
	tick  []uint64 // LRU clock values; 0 on invalid entries

	clock uint64

	hits, misses uint64

	// miss is left by the last lookup that missed in a set with
	// storage, so the Insert that usually follows skips the set's
	// second scan.
	miss cursor

	// Bulk PreloadRange spans since Reset not yet written to every set.
	// An untouched set receives its share of them when its block is
	// handed out. Once any set has storage, later preloads go through
	// Insert.
	spans []span
}

// cursor records that line (addr / LineSize + 1) was absent from its
// set when the clock read clock, and that an Insert of it then would
// have evicted entry victim. Every change to a touched set's lines or
// ticks but Invalidate advances the clock, so the record holds while
// the clock has not moved and no Invalidate or Reset has cleared it.
type cursor struct {
	line   uint64
	victim int
	clock  uint64
}

// span is a preloaded range: n consecutive line numbers from first,
// with the clock value just before its first line. set0, per and extra
// are first%sets, n/sets and n%sets, so a set finds its share of the
// span without dividing.
type span struct{ first, n, clock0, set0, per, extra uint64 }

// share returns the offset in p of the first line that maps to set s,
// and how many of p's lines map to s.
func (p *span) share(s, sets uint64) (off, k uint64) {
	off = s - p.set0
	if s < p.set0 {
		off += sets
	}
	k = p.per
	if off < p.extra {
		k++
	}
	return off, k
}

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
	c.miss = cursor{}
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

// find returns the first entry of addr's set, handing the set a block
// on first touch. An untouched set with no pending preload spans holds
// nothing, so find reports -1 for it without taking a block.
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

// lookup returns addr's entry if its line is present. A miss in a set
// with storage leaves the cursor for the Insert that may follow.
func (c *Cache) lookup(addr uint64) (entry int, hit bool) {
	base := c.find(addr)
	if base < 0 {
		return -1, false
	}
	line := addr/mem.LineSize + 1
	for e, l := range c.lines[base : base+c.ways] {
		if l == line {
			return base + e, true
		}
	}
	c.miss = cursor{line, c.victim(base), c.clock}
	return -1, false
}

// victim returns the entry an Insert into the set at base evicts.
// Invalid ways hold tick 0 and valid ticks are distinct and positive,
// so the last way with the smallest tick is the last invalid way, else
// the LRU one.
func (c *Cache) victim(base int) int {
	e, oldest := base, c.tick[base]
	for w := base + 1; w < base+c.ways; w++ {
		if t := c.tick[w]; t <= oldest {
			e, oldest = w, t
		}
	}
	return e
}

// Probe looks addr up and returns the entry index on a hit. It counts
// hit/miss statistics and refreshes LRU state on hits.
func (c *Cache) Probe(addr uint64) (entry int, hit bool) {
	if e, ok := c.lookup(addr); ok {
		c.clock++
		c.tick[e] = c.clock
		c.hits++
		return e, true
	}
	c.misses++
	return -1, false
}

// Peek is Probe without statistics or LRU updates (for prefetcher
// filtering).
func (c *Cache) Peek(addr uint64) (entry int, hit bool) { return c.lookup(addr) }

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
// it in place (keeping its dirty bit). Right after a lookup of addr
// missed, with the clock unmoved, the lookup's cursor names the way to
// write.
func (c *Cache) Insert(addr uint64, readyAt float64, dirty bool) Victim {
	line := addr/mem.LineSize + 1
	known := c.miss.line == line && c.miss.clock == c.clock
	c.clock++
	e := c.miss.victim
	if !known {
		base := c.find(addr)
		if base < 0 {
			base = c.claim(c.set(addr))
		}
		for w := base; w < base+c.ways; w++ {
			if c.lines[w] == line {
				c.tick[w] = c.clock
				if readyAt < c.ready[w] {
					c.ready[w] = readyAt
				}
				if dirty {
					c.dirty[w] = true
				}
				return Victim{}
			}
		}
		e = c.victim(base)
	}
	var v Victim
	if l := c.lines[e]; l != 0 {
		v = Victim{Addr: (l - 1) * mem.LineSize, Dirty: c.dirty[e], Evicted: true}
	}
	c.lines[e] = line
	c.ready[e] = readyAt
	c.dirty[e] = dirty
	c.tick[e] = c.clock
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
		sets := uint64(c.sets)
		c.spans = append(c.spans, span{first, n, c.clock, first % sets, n / sets, n % sets})
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
// base, where the Insert loop would have put it. The block starts
// empty, spans are disjoint and each gets ticks above the last, so the
// j-th line to reach the set lands in way ways-1-j%ways and evicts the
// line ways before it: only the set's last ways lines survive, and
// fill writes just those.
func (c *Cache) fill(s, base int) {
	sets, ways := uint64(c.sets), uint64(c.ways)
	total := uint64(0)
	for i := range c.spans {
		_, k := c.spans[i].share(uint64(s), sets)
		total += k
	}
	skip := total - min(total, ways) // lines evicted within the fill
	w := ways - 1
	if skip > 0 {
		w -= skip % ways
	}
	for i := range c.spans {
		p := &c.spans[i]
		off, k := p.share(uint64(s), sets)
		if skip >= k {
			skip -= k
			continue
		}
		for j := off + skip*sets; j < p.n; j += sets {
			e := base + int(w)
			c.lines[e] = p.first + j + 1
			c.tick[e] = p.clock0 + j + 1
			if w == 0 {
				w = ways
			}
			w--
		}
		skip = 0
	}
}

// Invalidate drops addr if present, returning its victim record.
func (c *Cache) Invalidate(addr uint64) Victim {
	if e, ok := c.Peek(addr); ok {
		v := Victim{Addr: addr / mem.LineSize * mem.LineSize, Dirty: c.dirty[e], Evicted: true}
		c.lines[e] = 0
		c.dirty[e] = false
		c.ready[e] = 0
		c.tick[e] = 0 // the victim choice reads tick 0 as invalid
		c.miss = cursor{}
		return v
	}
	return Victim{}
}
