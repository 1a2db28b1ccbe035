package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"
	"testing"

	"github.com/moatlab/melody/internal/core"
	"github.com/moatlab/melody/internal/counters"
	"github.com/moatlab/melody/internal/mem"
	"github.com/moatlab/melody/internal/platform"
)

type fixedDev struct{ lat float64 }

func (d *fixedDev) Access(now float64, addr uint64, kind mem.Kind) float64 {
	if kind == mem.Write {
		return now + d.lat/4
	}
	return now + d.lat
}
func (d *fixedDev) Name() string           { return "fixed" }
func (d *fixedDev) Reset()                 {}
func (d *fixedDev) Stats() mem.DeviceStats { return mem.DeviceStats{} }

// small graphs keep unit tests quick.
const testN = 1 << 14

func TestBuildShapes(t *testing.T) {
	for _, name := range GraphNames {
		g := Build(name, testN, 8, 1)
		if g.N != testN {
			t.Fatalf("%s: N = %d", name, g.N)
		}
		if g.M() == 0 {
			t.Fatalf("%s: no edges", name)
		}
		if int(g.Offsets[g.N]) != g.M() {
			t.Fatalf("%s: CSR offsets inconsistent", name)
		}
		// Offsets monotone, edges in range.
		for u := uint32(0); u < g.N; u++ {
			if g.Offsets[u] > g.Offsets[u+1] {
				t.Fatalf("%s: offsets not monotone at %d", name, u)
			}
		}
		for _, v := range g.Edges {
			if v >= g.N {
				t.Fatalf("%s: edge target %d out of range", name, v)
			}
		}
	}
}

// digest is the sha256 of g's Offsets then Edges as little-endian
// uint32s.
func digest(g *Graph) string {
	h := sha256.New()
	for _, xs := range [][]uint32{g.Offsets, g.Edges} {
		b := make([]byte, 4*len(xs))
		for i, x := range xs {
			binary.LittleEndian.PutUint32(b[4*i:], x)
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGetConcurrent: concurrent first calls build a graph once and
// all return that instance.
func TestGetConcurrent(t *testing.T) {
	const callers = 4
	got := make([]*Graph, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = Get("road")
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g == nil || g != got[0] {
			t.Fatalf("caller %d got %p, caller 0 got %p", i, g, got[0])
		}
	}
}

// TestBuildByteIdentity pins every generator's CSR arrays. The digests
// come from the per-vertex-slice builder that CSR assembly replaced;
// the generators' RNG streams and the sorted targets must not change.
// Only road is checked at DefaultNodes: the other graphs take seconds
// each at that scale.
func TestBuildByteIdentity(t *testing.T) {
	want := map[string]string{
		"twitter": "ff7b9d2bd1ebd3d048e731043268539270f553a567a3733b7037c74e90db9b5a",
		"web":     "8493bf7c28d488362ca4bb4419f5a58a1f3dc0c051ba9861b8934052f3037cf6",
		"road":    "26c0e2e2835d293cfc285cda1363b1aff65ff40585cf500f7ecc6d6a5032a68f",
		"kron":    "674b7d8227b8c23dca6ec4db5a5f56a5ffcdbe0a7be78aa0918676b6ba3590a9",
		"urand":   "7e2d1502a919396c0e9ae6a295fa9a90dab2a4bd6f3be21ddab9b36de71eca36",
	}
	for _, name := range GraphNames {
		if got := digest(Build(name, testN, 8, 1)); got != want[name] {
			t.Errorf("%s at %d nodes: digest %s, want %s", name, testN, got, want[name])
		}
	}
	const road = "f66590b98a32894277d2409e1f36ea25b69d63ddbb5b09dc0e7c9907184530ad"
	if got := digest(Get("road")); got != road {
		t.Errorf("road at DefaultNodes: digest %s, want %s", got, road)
	}
}

// roadEdges is road's grid as an edge list, emitted as the edge-list
// builder once did: for each node, its right then lower neighbour, each
// edge in both directions.
func roadEdges(n uint32) []edge {
	side := uint32(1)
	for side*side < n {
		side++
	}
	var edges []edge
	for u := uint32(0); u < n; u++ {
		x, y := u%side, u/side
		if x+1 < side && u+1 < n {
			edges = append(edges, edge{u, u + 1}, edge{u + 1, u})
		}
		if y+1 < side && u+side < n {
			edges = append(edges, edge{u, u + side}, edge{u + side, u})
		}
	}
	return edges
}

// TestRoadMatchesEdgeList: road's direct CSR equals the edge-list
// builder's on its grid, at sizes where the last row is partial.
func TestRoadMatchesEdgeList(t *testing.T) {
	for _, n := range []uint32{2, 3, 5, 17, testN + 7} {
		offsets, targets := assemble(n, roadEdges(n))
		g := Build("road", n, DefaultDegree, 1)
		if !slices.Equal(g.Offsets, offsets) || !slices.Equal(g.Edges, targets) {
			t.Errorf("road at %d nodes: direct CSR differs from the edge-list build", n)
		}
	}
}

var sink *Graph

// BenchmarkGraphBuild times each generator plus CSR assembly at 16×
// the unit-test scale, and at DefaultNodes road, the one graph
// perfbench's sweep uses.
func BenchmarkGraphBuild(b *testing.B) {
	run := func(name string, n uint32) {
		b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				sink = Build(name, n, DefaultDegree, 1)
			}
		})
	}
	for _, name := range GraphNames {
		run(name, testN*16)
	}
	run("road", DefaultNodes)
}

func TestDegreeSkew(t *testing.T) {
	// twitter must be much more skewed than urand.
	maxDeg := func(name string) int {
		g := Build(name, testN, 8, 1)
		max := 0
		for u := uint32(0); u < g.N; u++ {
			if d := int(g.Offsets[u+1] - g.Offsets[u]); d > max {
				max = d
			}
		}
		return max
	}
	if maxDeg("twitter") < 4*maxDeg("urand") {
		t.Fatalf("twitter max degree %d not skewed vs urand %d", maxDeg("twitter"), maxDeg("urand"))
	}
}

func TestRoadLowDegree(t *testing.T) {
	g := Build("road", testN, 8, 1)
	for u := uint32(0); u < g.N; u++ {
		if d := g.Offsets[u+1] - g.Offsets[u]; d > 4 {
			t.Fatalf("road node %d has degree %d", u, d)
		}
	}
}

func TestKernelsExecute(t *testing.T) {
	g := Build("urand", testN, 8, 1)
	for _, k := range Kernels {
		w := NewWithGraph(k, g, 1)
		m := core.New(core.Config{CPU: platform.SKX2S().CPU, Device: &fixedDev{lat: 120}, MaxInstructions: 50_000})
		w.Run(m)
		c := m.Counters()
		if c[counters.Instructions] < 50_000 {
			t.Fatalf("%s: ran %v instructions", k, c[counters.Instructions])
		}
		if c[counters.DemandLoads] == 0 {
			t.Fatalf("%s: no loads issued", k)
		}
	}
}

func TestBFSCorrectness(t *testing.T) {
	// On a grid (road) graph every node is reachable, so an unbounded
	// BFS must label the whole graph with finite distances and the
	// source's neighbour with distance 1.
	g := Build("road", 1<<10, 4, 1)
	w := NewWithGraph("bfs", g, 7)
	m := core.New(core.Config{CPU: platform.SKX2S().CPU, Device: &fixedDev{lat: 50}, MaxInstructions: 50_000_000})
	w.bfs(m)
	src := uint32(0)
	for v, d := range w.vals {
		if d == 0 {
			src = uint32(v)
			break
		}
	}
	if w.vals[src] != 0 {
		t.Fatalf("no BFS source found")
	}
	reached := 0
	for _, d := range w.vals {
		if d != inf {
			reached++
		}
	}
	if reached != int(g.N) {
		t.Fatalf("BFS reached only %d/%d nodes of a connected grid", reached, g.N)
	}
}

func TestSpecsCount(t *testing.T) {
	specs := Specs()
	if len(specs) != 30 {
		t.Fatalf("got %d GAPBS specs, want 30", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.Name] {
			t.Fatalf("duplicate spec %s", s.Name)
		}
		seen[s.Name] = true
		if s.New == nil {
			t.Fatalf("%s has no constructor", s.Name)
		}
	}
}

// TestCCLabelsConnectedGrid: on a connected grid every node must end up
// with the same component label.
func TestCCLabelsConnectedGrid(t *testing.T) {
	g := Build("road", 1<<8, 4, 1)
	w := NewWithGraph("cc", g, 3)
	m := core.New(core.Config{CPU: platform.SKX2S().CPU, Device: &fixedDev{lat: 40}, MaxInstructions: 100_000_000})
	w.components(m)
	label := w.vals[0]
	for v, l := range w.vals {
		if l != label {
			t.Fatalf("node %d has label %d, node 0 has %d (grid is connected)", v, l, label)
		}
	}
}

// TestTriangleCountMatchesBruteForce verifies TC on a small graph.
func TestTriangleCountMatchesBruteForce(t *testing.T) {
	g := Build("urand", 1<<7, 6, 5)
	// Brute-force re-implementation of the kernel's ordered merge
	// intersection, computed independently of the Machine plumbing.
	brute := uint64(0)
	for u := uint32(0); u < g.N; u++ {
		for i := g.Offsets[u]; i < g.Offsets[u+1]; i++ {
			v := g.Edges[i]
			if v <= u {
				continue
			}
			// Intersect adjacency of u and v (the kernel's merge).
			a, b := g.Offsets[u], g.Offsets[v]
			for a < g.Offsets[u+1] && b < g.Offsets[v+1] {
				x, y := g.Edges[a], g.Edges[b]
				switch {
				case x == y:
					brute++
					a++
					b++
				case x < y:
					a++
				default:
					b++
				}
			}
		}
	}
	w := NewWithGraph("tc", g, 7)
	m := core.New(core.Config{CPU: platform.SKX2S().CPU, Device: &fixedDev{lat: 40}, MaxInstructions: 1 << 40})
	count := w.trianglesCount(m)
	if count != brute {
		t.Fatalf("kernel counted %d, brute force %d", count, brute)
	}
}

// TestSSSPDistancesSane: distances must be 0 at the source and respect
// edge relaxation (no distance larger than a neighbour's + max weight).
func TestSSSPDistancesSane(t *testing.T) {
	g := Build("road", 1<<8, 4, 1)
	w := NewWithGraph("sssp", g, 11)
	m := core.New(core.Config{CPU: platform.SKX2S().CPU, Device: &fixedDev{lat: 40}, MaxInstructions: 100_000_000})
	w.sssp(m)
	reached := 0
	for u := uint32(0); u < g.N; u++ {
		du := w.vals[u]
		if du == inf {
			continue
		}
		reached++
		for i := g.Offsets[u]; i < g.Offsets[u+1]; i++ {
			v := g.Edges[i]
			wgt := (u^v)%7 + 1
			if w.vals[v] != inf && w.vals[v] > du+wgt {
				t.Fatalf("triangle inequality violated: d[%d]=%d > d[%d]=%d + %d",
					v, w.vals[v], u, du, wgt)
			}
		}
	}
	if reached < 2 {
		t.Fatalf("SSSP reached only %d nodes", reached)
	}
}
