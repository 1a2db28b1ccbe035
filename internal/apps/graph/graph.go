// Package graph implements GAPBS-style graph kernels (BFS, PageRank,
// connected components, SSSP, triangle counting, betweenness centrality)
// that actually execute over CSR graphs while performing their loads and
// stores through the simulated machine. The paper's graph inputs
// (twitter, web, kron, urand, road) are replaced by synthetic generators
// with matching shape: power-law degree distributions for twitter/web,
// RMAT for kron, uniform for urand, and near-diagonal locality for road.
package graph

import (
	"slices"
	"sync"

	"github.com/moatlab/melody/internal/core"
	"github.com/moatlab/melody/internal/sim"
	"github.com/moatlab/melody/internal/vm"
)

// Graph is a CSR graph bound to simulated addresses.
type Graph struct {
	Name    string
	N       uint32   // nodes
	Offsets []uint32 // len N+1
	Edges   []uint32 // len M

	arena      *vm.Arena
	offsetsObj vm.Object
	edgesObj   vm.Object
}

// edge is one generated (source, target) pair before CSR assembly.
type edge struct{ u, v uint32 }

// M returns the edge count.
func (g *Graph) M() int { return len(g.Edges) }

// Arena exposes the graph's allocations (for placement experiments).
func (g *Graph) Arena() *vm.Arena { return g.arena }

// simulated addresses of CSR elements.
func (g *Graph) offsetAddr(v uint32) uint64 { return g.offsetsObj.Base + uint64(v)*4 }
func (g *Graph) edgeAddr(i int) uint64      { return g.edgesObj.Base + uint64(i)*4 }

// DefaultNodes is the synthetic graph scale: large enough that kernel
// working sets exceed the biggest simulated LLC.
const DefaultNodes = 1 << 21

// DefaultDegree is the average out-degree.
const DefaultDegree = 12

// Build constructs the named synthetic graph ("twitter", "web", "kron",
// "urand", "road") at the given scale.
func Build(name string, n uint32, degree int, seed uint64) *Graph {
	g := &Graph{Name: name, N: n}
	if name == "road" {
		g.Offsets, g.Edges = roadCSR(n)
	} else {
		g.Offsets, g.Edges = assemble(n, generate(name, n, degree, seed))
	}
	g.arena = vm.New(2 << 30)
	g.offsetsObj = g.arena.Alloc("offsets", uint64(n+1)*4)
	g.edgesObj = g.arena.Alloc("edges", uint64(len(g.Edges))*4)
	return g
}

// generate emits the edge list of every generator but road, drawing
// from one RNG stream seeded with seed.
func generate(name string, n uint32, degree int, seed uint64) []edge {
	r := sim.NewRand(seed)
	m := int(n) * degree
	edges := make([]edge, 0, m)
	addEdge := func(u, v uint32) {
		if u != v {
			edges = append(edges, edge{u, v})
		}
	}

	switch name {
	case "urand":
		for i := 0; i < m; i++ {
			addEdge(uint32(r.Uint64n(uint64(n))), uint32(r.Uint64n(uint64(n))))
		}
	case "kron":
		// RMAT with the GAPBS parameters (a=0.57, b=0.19, c=0.19). Each
		// bit picks a quadrant without branching: u's bit is set in the
		// bottom half (c, d: p >= 0.76) and v's in the right half (b:
		// 0.57 <= p < 0.76, d: p >= 0.95).
		bits := 0
		for 1<<bits < int(n) {
			bits++
		}
		for i := 0; i < m; i++ {
			var u, v uint32
			for b := 0; b < bits; b++ {
				p := r.Float64()
				bottom := p >= 0.76
				u |= bit(bottom) << b
				v |= bit(p >= 0.57 != bottom != (p >= 0.95)) << b
			}
			if u < n && v < n {
				addEdge(u, v)
			}
		}
	case "twitter":
		// Power-law degrees on both sides: sources and targets drawn
		// from independent Zipf distributions, like the follower graph.
		zSrc := sim.NewZipf(r, uint64(n), 0.6)
		zDst := sim.NewZipf(r.Fork(), uint64(n), 0.8)
		for i := 0; i < m; i++ {
			// Scatter the hot ranks across the id space so hubs are not
			// all low ids.
			u := uint32((zSrc.Next() * 0x9e3779b9) % uint64(n))
			v := uint32((zDst.Next() * 0x85ebca6b) % uint64(n))
			addEdge(u, v)
		}
	case "web":
		// Power-law plus host locality: most links stay near the source.
		z := sim.NewZipf(r, uint64(n), 0.7)
		for i := 0; i < m; i++ {
			u := uint32(r.Uint64n(uint64(n)))
			var v uint32
			if r.Bool(0.7) {
				// Local link within a 4K-node "site".
				base := u &^ 4095
				v = base + uint32(r.Uint64n(4096))
				if v >= n {
					v = n - 1
				}
			} else {
				v = uint32(z.Next())
			}
			addEdge(u, v)
		}
	default:
		panic("graph: unknown generator " + name)
	}
	return edges
}

// bit is 1 for true and 0 for false.
func bit(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// assemble builds CSR arrays from an edge list as the GAPBS builder
// does: count out-degrees, prefix-sum them so offsets[u] is the end of
// u's range, then place the edges back to front, moving each offsets[u]
// down to the start of u's range, and sort each range.
func assemble(n uint32, edges []edge) (offsets, targets []uint32) {
	offsets = make([]uint32, n+1)
	for _, e := range edges {
		offsets[e.u]++
	}
	for u := uint32(1); u <= n; u++ {
		offsets[u] += offsets[u-1]
	}
	targets = make([]uint32, len(edges))
	for i := len(edges) - 1; i >= 0; i-- {
		e := edges[i]
		offsets[e.u]--
		targets[offsets[e.u]] = e.v
	}
	for u := uint32(0); u < n; u++ {
		slices.Sort(targets[offsets[u]:offsets[u+1]])
	}
	return offsets, targets
}

// roadCSR writes road's CSR arrays directly. Road is a grid with side
// columns, the smallest side with side*side >= n; node u = y*side + x
// links to each grid neighbour that exists: u-side, u-1, u+1, u+side,
// already in sorted order. Road draws no random numbers.
func roadCSR(n uint32) (offsets, targets []uint32) {
	side := uint32(1)
	for side*side < n {
		side++
	}
	offsets = make([]uint32, n+1)
	targets = make([]uint32, 0, 4*int(n))
	u := uint32(0)
	for y := uint32(0); u < n; y++ {
		for x := uint32(0); x < side && u < n; x++ {
			offsets[u] = uint32(len(targets))
			if y > 0 {
				targets = append(targets, u-side)
			}
			if x > 0 {
				targets = append(targets, u-1)
			}
			if x+1 < side && u+1 < n {
				targets = append(targets, u+1)
			}
			if u+side < n {
				targets = append(targets, u+side)
			}
			u++
		}
	}
	offsets[n] = uint32(len(targets))
	return offsets, targets
}

// Graphs are expensive to build, so instances are cached per name for
// the life of the process. Addresses are deterministic, so sharing
// across runs is safe. Each name is built once, outside cacheMu, so
// distinct graphs build concurrently.
var (
	cacheMu sync.Mutex
	cache   = map[string]func() *Graph{}
)

// Get returns the cached default-scale instance of the named graph.
func Get(name string) *Graph {
	cacheMu.Lock()
	get, ok := cache[name]
	if !ok {
		get = sync.OnceValue(func() *Graph {
			return Build(name, DefaultNodes, DefaultDegree, 0x6a09e667f3bcc908)
		})
		cache[name] = get
	}
	cacheMu.Unlock()
	return get()
}

// loadOffsets reads offsets[u] and offsets[u+1] through the machine.
func (g *Graph) loadOffsets(m *core.Machine, u uint32) (uint32, uint32) {
	m.Load(g.offsetAddr(u), false)
	// offsets[u+1] is usually the same line; the cache model makes the
	// second load nearly free when it is.
	m.Load(g.offsetAddr(u+1), false)
	return g.Offsets[u], g.Offsets[u+1]
}
