// Package kvstore implements a Redis-like in-memory key-value store
// that executes against the simulated machine: an open-addressing hash
// table and a value log live in simulated memory, and every probe and
// value transfer is a machine load/store. A YCSB driver (workloads A-F)
// generates the operation mix the paper uses for Redis, VoltDB and
// memcached (Figures 7c and 9b).
package kvstore

import (
	"slices"
	"sync"

	"github.com/moatlab/melody/internal/core"
	"github.com/moatlab/melody/internal/mem"
	"github.com/moatlab/melody/internal/vm"
)

// Config sizes a store.
type Config struct {
	Keys      uint64 // populated records
	ValueSize uint64 // bytes per value
	// OpCompute is the per-operation command processing cost in
	// instructions (parsing, dispatch, response).
	OpCompute uint64
	// OpILP is the ILP of that processing.
	OpILP float64
}

// RedisConfig mirrors a Redis-style deployment under YCSB defaults
// (1 KB values).
func RedisConfig() Config {
	return Config{Keys: 1 << 20, ValueSize: 1024, OpCompute: 1800, OpILP: 2.2}
}

// MemcachedConfig mirrors a memcached-style deployment (small values,
// lighter protocol).
func MemcachedConfig() Config {
	return Config{Keys: 1 << 21, ValueSize: 128, OpCompute: 900, OpILP: 2.4}
}

type slot struct {
	key     uint64 // 0 = empty
	valAddr uint64
}

// pageSlots is the number of hash-table slots per copy-on-write page.
const pageSlots = 4096

// Store is the functional KV store bound to simulated memory.
type Store struct {
	cfg    Config
	arena  *vm.Arena
	table  vm.Object
	values vm.Object
	// The hash table, in pages of pageSlots slots (one shorter page for
	// tables below that). A page is shared with the populated image
	// until the store first writes it; owned marks the pages it copied.
	pages   [][]slot
	owned   []bool
	nSlots  uint64
	logHead uint64
}

// NewStore returns a populated store (population is instantaneous — it
// happens before the measured run, like YCSB's load phase). Population
// depends on cfg alone, so it runs once per Config into an immutable
// image; each store shares the image's arena and hash-table pages, and
// copies a page only when it first writes to it.
func NewStore(cfg Config) *Store {
	img := image(cfg)
	s := *img
	s.pages = slices.Clone(img.pages)
	s.owned = make([]bool, len(img.pages))
	return &s
}

// Populated images are cached per Config for the life of the process,
// like graph instances: stores never modify an image's pages, only
// their copies of them. Each Config is populated once, outside
// imagesMu, so distinct images populate concurrently.
var (
	imagesMu sync.Mutex
	images   = map[Config]func() *Store{}
)

func image(cfg Config) *Store {
	imagesMu.Lock()
	get, ok := images[cfg]
	if !ok {
		get = sync.OnceValue(func() *Store { return populate(cfg) })
		images[cfg] = get
	}
	imagesMu.Unlock()
	return get()
}

// populate builds a store and inserts cfg.Keys records into one flat
// table by linear probing, then cuts the table into pages. Each page
// is a three-index slice of the table, so a store's first write to it
// copies only that page.
func populate(cfg Config) *Store {
	nSlots := uint64(1)
	for nSlots < cfg.Keys*2 {
		nSlots <<= 1
	}
	s := &Store{cfg: cfg, nSlots: nSlots}
	s.arena = vm.New(4 << 30)
	s.table = s.arena.Alloc("hashtable", nSlots*16)
	s.values = s.arena.Alloc("valuelog", (cfg.Keys+cfg.Keys/4)*cfg.ValueSize)
	table := make([]slot, nSlots)
	for k := uint64(1); k <= cfg.Keys; k++ {
		h := hashKey(k) & (nSlots - 1)
		for table[h].key != 0 {
			h = (h + 1) & (nSlots - 1)
		}
		table[h] = slot{key: k, valAddr: s.allocValue()}
	}
	pageLen := min(nSlots, pageSlots)
	for p := uint64(0); p < nSlots; p += pageLen {
		s.pages = append(s.pages, table[p:p+pageLen:p+pageLen])
		s.owned = append(s.owned, true)
	}
	return s
}

// Arena exposes the store's objects for placement experiments. Stores
// built from one Config share it; it must not be modified.
func (s *Store) Arena() *vm.Arena { return s.arena }

func (s *Store) allocValue() uint64 {
	addr := s.values.Base + s.logHead
	s.logHead = (s.logHead + s.cfg.ValueSize) % s.values.Size
	return addr
}

func hashKey(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	return k
}

func (s *Store) at(h uint64) slot { return s.pages[h/pageSlots][h%pageSlots] }

// put writes slot h, first copying its page if the store shares it.
func (s *Store) put(h uint64, sl slot) {
	p := h / pageSlots
	if !s.owned[p] {
		s.pages[p] = slices.Clone(s.pages[p])
		s.owned[p] = true
	}
	s.pages[p][h%pageSlots] = sl
}

// insert adds a key without simulation (YCSB's inserts place the new
// key before their simulated Set).
func (s *Store) insert(key, valAddr uint64) {
	h := hashKey(key) & (s.nSlots - 1)
	for k := s.at(h).key; k != 0 && k != key; k = s.at(h).key {
		h = (h + 1) & (s.nSlots - 1)
	}
	s.put(h, slot{key: key, valAddr: valAddr})
}

func (s *Store) slotAddr(h uint64) uint64 { return s.table.Base + h*16 }

// lookup probes the table through the machine and returns the slot
// index; found is false for absent keys.
func (s *Store) lookup(m *core.Machine, key uint64) (idx uint64, found bool) {
	h := hashKey(key) & (s.nSlots - 1)
	for probes := 0; probes < 64; probes++ {
		// The probe address depends on the hash computation and, for
		// collisions, on having read the previous slot: dependent.
		m.Load(s.slotAddr(h), true)
		m.Compute(6)
		sl := s.at(h)
		if sl.key == key {
			return h, true
		}
		if sl.key == 0 {
			return h, false
		}
		h = (h + 1) & (s.nSlots - 1)
	}
	return h, false
}

// Get reads a value through the machine.
func (s *Store) Get(m *core.Machine, key uint64) bool {
	idx, ok := s.lookup(m, key)
	if !ok {
		return false
	}
	addr := s.at(idx).valAddr
	lines := (s.cfg.ValueSize + mem.LineSize - 1) / mem.LineSize
	for i := uint64(0); i < lines; i++ {
		// First line is pointer-dependent on the slot; the rest stream.
		m.Load(addr+i*mem.LineSize, i == 0)
	}
	m.Compute(lines * 4) // copy into the response buffer
	return true
}

// Set writes (or overwrites) a value through the machine. Overwrites
// allocate fresh log space like Redis' SDS reallocation under YCSB's
// full-value updates.
func (s *Store) Set(m *core.Machine, key uint64) {
	idx, _ := s.lookup(m, key)
	addr := s.allocValue()
	lines := (s.cfg.ValueSize + mem.LineSize - 1) / mem.LineSize
	for i := uint64(0); i < lines; i++ {
		m.Store(addr + i*mem.LineSize)
	}
	s.put(idx, slot{key: key, valAddr: addr})
	m.Store(s.slotAddr(idx))
	m.Compute(lines * 3)
}

// Scan reads n consecutive values starting at key (YCSB-E).
func (s *Store) Scan(m *core.Machine, key uint64, n int) {
	for i := 0; i < n; i++ {
		k := key + uint64(i)
		if k > s.cfg.Keys {
			break
		}
		s.Get(m, k)
	}
}
