package sim

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestRandDeterminism(t *testing.T) {
	a := NewRand(42)
	b := NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRandSeedsDiffer(t *testing.T) {
	a := NewRand(1)
	b := NewRand(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRand(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRand(3)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) covered only %d values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestExpMean(t *testing.T) {
	r := NewRand(5)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Exp(100)
	}
	mean := sum / n
	if math.Abs(mean-100) > 2 {
		t.Fatalf("exp mean = %v, want ~100", mean)
	}
}

func TestNormMoments(t *testing.T) {
	r := NewRand(9)
	sum, sumSq := 0.0, 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Norm(50, 10)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-50) > 0.5 {
		t.Fatalf("norm mean = %v, want ~50", mean)
	}
	if math.Abs(math.Sqrt(variance)-10) > 0.5 {
		t.Fatalf("norm stddev = %v, want ~10", math.Sqrt(variance))
	}
}

func TestParetoLowerBound(t *testing.T) {
	r := NewRand(13)
	for i := 0; i < 10000; i++ {
		v := r.Pareto(5, 2)
		if v < 5 {
			t.Fatalf("Pareto below min: %v", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRand(17)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) hit rate = %v", p)
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRand(23)
	z := NewZipf(r, 1000, 0.99)
	counts := make([]int, 1000)
	const n = 200000
	for i := 0; i < n; i++ {
		v := z.Next()
		if v >= 1000 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	// Rank 0 must dominate and the top decile should hold most mass.
	if counts[0] < counts[1] {
		t.Fatalf("rank 0 (%d) not more popular than rank 1 (%d)", counts[0], counts[1])
	}
	top := 0
	for i := 0; i < 100; i++ {
		top += counts[i]
	}
	if float64(top)/n < 0.5 {
		t.Fatalf("top 10%% keys hold only %.2f of mass, want > 0.5", float64(top)/n)
	}
}

func TestZipfPropertyInRange(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := uint64(nRaw)%1000 + 1
		z := NewZipf(NewRand(seed), n, 0.99)
		for i := 0; i < 50; i++ {
			if z.Next() >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestForkIndependence(t *testing.T) {
	r := NewRand(31)
	f1 := r.Fork()
	f2 := r.Fork()
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("forked generators produced identical first draw")
	}
}

// TestZipfMemoConcurrent builds Zipf samplers over a few key spaces
// from several goroutines at once and requires each to draw the same
// sequence as one built before them, and every memoized zeta to equal
// the series itself.
func TestZipfMemoConcurrent(t *testing.T) {
	draws := func(n uint64) [8]uint64 {
		z := NewZipf(NewRand(n), n, 0.99)
		var out [8]uint64
		for i := range out {
			out[i] = z.Next()
		}
		return out
	}
	spaces := []uint64{2, 1000, 1 << 20, 50_000_000}
	want := map[uint64][8]uint64{}
	for _, n := range spaces {
		want[n] = draws(n)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, n := range spaces {
				if got := draws(n); got != want[n] {
					t.Errorf("n=%d: draws %v, want %v", n, got, want[n])
				}
			}
		}()
	}
	wg.Wait()
	for _, n := range spaces {
		if z, s := zeta(n, 0.99), zetaSum(n, 0.99); z != s {
			t.Fatalf("zeta(%d) = %v, series gives %v", n, z, s)
		}
	}
}
