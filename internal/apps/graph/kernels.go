package graph

import (
	"github.com/moatlab/melody/internal/core"
	"github.com/moatlab/melody/internal/sim"
	"github.com/moatlab/melody/internal/vm"
	"github.com/moatlab/melody/internal/workload"
)

// Kernel names in GAPBS order.
var Kernels = []string{"bfs", "pr", "cc", "sssp", "tc", "bc"}

// GraphNames lists the synthetic inputs.
var GraphNames = []string{"twitter", "web", "road", "kron", "urand"}

// Workload runs one kernel over one graph until the machine budget is
// exhausted, restarting the traversal as needed.
type Workload struct {
	name   string
	kernel string
	g      *Graph
	rng    *sim.Rand

	// per-kernel property arrays in simulated memory
	prop  vm.Object // 4B per node (dist / rank / comp / depth)
	prop2 vm.Object // second array where the kernel needs one
	// Go-side values for actual execution, nil for kernels that do not
	// read them
	vals  []uint32  // bfs, cc, sssp, bc
	vals2 []float32 // pr, bc
}

// New builds a kernel workload. The graph is built (or fetched from the
// process-wide cache) on first use.
func New(kernel, graphName string, seed uint64) *Workload {
	return NewWithGraph(kernel, Get(graphName), seed)
}

// NewWithGraph builds a kernel workload over an explicit graph instance
// (tests and custom scales).
func NewWithGraph(kernel string, g *Graph, seed uint64) *Workload {
	w := &Workload{
		name:   kernel + "-" + g.Name,
		kernel: kernel,
		g:      g,
		rng:    sim.NewRand(seed),
	}
	arena := vm.New(16 << 30) // kernel-private arrays above the graph
	w.prop = arena.Alloc("prop", uint64(g.N)*4)
	w.prop2 = arena.Alloc("prop2", uint64(g.N)*4)
	switch kernel {
	case "bfs", "cc", "sssp", "bc":
		w.vals = make([]uint32, g.N)
	}
	switch kernel {
	case "pr", "bc":
		w.vals2 = make([]float32, g.N)
	}
	return w
}

// Name implements workload.Workload.
func (w *Workload) Name() string { return w.name }

// PreloadObjects implements workload.Preloader: the offsets array and
// per-node property arrays are the structures a long-running run keeps
// cached; edge lists stream.
func (w *Workload) PreloadObjects() []vm.Object {
	return []vm.Object{w.prop, w.prop2, {Name: "offsets", Base: w.g.offsetAddr(0), Size: uint64(w.g.N+1) * 4}}
}

func (w *Workload) propAddr(v uint32) uint64  { return w.prop.Base + uint64(v)*4 }
func (w *Workload) prop2Addr(v uint32) uint64 { return w.prop2.Base + uint64(v)*4 }

// Run implements workload.Workload.
func (w *Workload) Run(m *core.Machine) {
	for !m.Done() {
		switch w.kernel {
		case "bfs":
			w.bfs(m)
		case "pr":
			w.pagerank(m)
		case "cc":
			w.components(m)
		case "sssp":
			w.sssp(m)
		case "tc":
			w.triangles(m)
		case "bc":
			w.betweenness(m)
		default:
			panic("graph: unknown kernel " + w.kernel)
		}
	}
}

const inf = ^uint32(0)

// bfs runs a breadth-first search from a random source.
func (w *Workload) bfs(m *core.Machine) {
	g := w.g
	for i := range w.vals {
		w.vals[i] = inf
	}
	src := uint32(w.rng.Uint64n(uint64(g.N)))
	w.vals[src] = 0
	frontier := []uint32{src}
	for len(frontier) > 0 && !m.Done() {
		var next []uint32
		for _, u := range frontier {
			if m.Done() {
				return
			}
			start, end := g.loadOffsets(m, u)
			du := w.vals[u]
			for i := start; i < end && !m.Done(); i++ {
				m.Load(g.edgeAddr(int(i)), false) // edge list streams
				v := g.Edges[i]
				m.Load(w.propAddr(v), true) // dist[v]: random, dependent
				if w.vals[v] == inf {
					w.vals[v] = du + 1
					m.Store(w.propAddr(v))
					next = append(next, v)
				}
				m.Compute(4)
			}
		}
		frontier = next
	}
}

// pagerank runs synchronous PageRank sweeps.
func (w *Workload) pagerank(m *core.Machine) {
	g := w.g
	n := float64(g.N)
	for i := range w.vals2 {
		w.vals2[i] = float32(1 / n)
	}
	for iter := 0; iter < 3 && !m.Done(); iter++ {
		for u := uint32(0); u < g.N && !m.Done(); u++ {
			start, end := g.loadOffsets(m, u)
			var sum float32
			for i := start; i < end && !m.Done(); i++ {
				m.Load(g.edgeAddr(int(i)), false)
				v := g.Edges[i]
				m.Load(w.propAddr(v), true) // rank gather: random, dependent
				sum += w.vals2[v]
				m.Compute(3)
			}
			w.vals2[u] = 0.15/float32(n) + 0.85*sum
			m.Store(w.prop2Addr(u)) // sequential rank store
			m.Compute(6)
		}
	}
}

// components runs label-propagation connected components.
func (w *Workload) components(m *core.Machine) {
	g := w.g
	for i := range w.vals {
		w.vals[i] = uint32(i)
	}
	changed := true
	for changed && !m.Done() {
		changed = false
		for u := uint32(0); u < g.N && !m.Done(); u++ {
			start, end := g.loadOffsets(m, u)
			m.Load(w.propAddr(u), false)
			best := w.vals[u]
			for i := start; i < end && !m.Done(); i++ {
				m.Load(g.edgeAddr(int(i)), false)
				v := g.Edges[i]
				m.Load(w.propAddr(v), true)
				if w.vals[v] < best {
					best = w.vals[v]
				}
				m.Compute(2)
			}
			if best < w.vals[u] {
				w.vals[u] = best
				m.Store(w.propAddr(u))
				changed = true
			}
		}
	}
}

// sssp runs Bellman-Ford-style relaxation rounds with unit-ish weights
// derived from edge endpoints (deterministic, no stored weights).
func (w *Workload) sssp(m *core.Machine) {
	g := w.g
	for i := range w.vals {
		w.vals[i] = inf
	}
	src := uint32(w.rng.Uint64n(uint64(g.N)))
	w.vals[src] = 0
	for round := 0; round < 4 && !m.Done(); round++ {
		for u := uint32(0); u < g.N && !m.Done(); u++ {
			m.Load(w.propAddr(u), false)
			du := w.vals[u]
			if du == inf {
				m.Compute(1)
				continue
			}
			start, end := g.loadOffsets(m, u)
			for i := start; i < end && !m.Done(); i++ {
				m.Load(g.edgeAddr(int(i)), false)
				v := g.Edges[i]
				wgt := (u^v)%7 + 1
				m.Load(w.propAddr(v), true)
				if du+wgt < w.vals[v] {
					w.vals[v] = du + wgt
					m.Store(w.propAddr(v))
				}
				m.Compute(5)
			}
		}
	}
}

// triangles counts triangles by sorted adjacency intersection.
func (w *Workload) triangles(m *core.Machine) { w.trianglesCount(m) }

// trianglesCount runs the kernel and returns the triangle count (used
// by correctness tests).
func (w *Workload) trianglesCount(m *core.Machine) uint64 {
	g := w.g
	var count uint64
	for u := uint32(0); u < g.N && !m.Done(); u++ {
		uStart, uEnd := g.loadOffsets(m, u)
		for i := uStart; i < uEnd && !m.Done(); i++ {
			m.Load(g.edgeAddr(int(i)), false)
			v := g.Edges[i]
			if v <= u {
				m.Compute(1)
				continue
			}
			vStart, vEnd := g.loadOffsets(m, v)
			// Merge-intersect adjacency lists: two streaming loads.
			a, b := uStart, vStart
			for a < uEnd && b < vEnd && !m.Done() {
				m.Load(g.edgeAddr(int(a)), false)
				m.Load(g.edgeAddr(int(b)), false)
				x, y := g.Edges[a], g.Edges[b]
				switch {
				case x == y:
					count++
					a++
					b++
				case x < y:
					a++
				default:
					b++
				}
				m.Compute(3)
			}
		}
	}
	return count
}

// betweenness runs one BFS plus a reverse accumulation sweep.
func (w *Workload) betweenness(m *core.Machine) {
	w.bfs(m)
	if m.Done() {
		return
	}
	g := w.g
	// Reverse sweep: accumulate centrality along decreasing depth.
	for u := g.N; u > 0 && !m.Done(); u-- {
		v := u - 1
		m.Load(w.propAddr(v), false)
		if w.vals[v] == inf {
			m.Compute(1)
			continue
		}
		start, end := g.loadOffsets(m, v)
		for i := start; i < end && !m.Done(); i++ {
			m.Load(g.edgeAddr(int(i)), false)
			t := g.Edges[i]
			m.Load(w.prop2Addr(t), true)
			w.vals2[v] += w.vals2[t] * 0.5
			m.Compute(4)
		}
		m.Store(w.prop2Addr(v))
	}
}

// Specs returns the 30 GAPBS-style catalog entries (6 kernels x 5
// graphs).
func Specs() []workload.Spec {
	var out []workload.Spec
	for _, k := range Kernels {
		for _, gn := range GraphNames {
			k, gn := k, gn
			cls := workload.ClassLatency
			if k == "pr" || k == "tc" {
				cls = workload.ClassMixed
			}
			out = append(out, workload.Spec{
				Name:  k + "-" + gn,
				Suite: "GAPBS",
				Class: cls,
				New: func(seed uint64) workload.Workload {
					return New(k, gn, seed)
				},
				Siblings: workload.Siblings{Threads: 8, ReadFrac: 0.9, MLP: 6, DelayNs: 150, WorkingSetMB: 128},
			})
		}
	}
	return out
}

// Register adds the GAPBS specs to the workload catalog.
func Register() { workload.RegisterApps(Specs()) }
