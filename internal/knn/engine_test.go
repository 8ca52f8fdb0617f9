package knn

import (
	"math"
	"math/rand"
	"testing"
)

// engineReference computes the exact answer an Engine must produce: the
// brute-force (distance, index) k-best.
func engineReference(pts []Point, q Point, k, exclude int) []Neighbor {
	h := maxHeap(nil)
	for i, p := range pts {
		if i == exclude {
			continue
		}
		h.push(Neighbor{Index: i, Dist: Chebyshev(q, p)}, k)
	}
	h.sortInPlace()
	return h
}

func coordsOf(pts []Point) (xs, ys []float64) {
	xs = make([]float64, len(pts))
	ys = make([]float64, len(pts))
	for i, p := range pts {
		xs[i], ys[i] = p.X, p.Y
	}
	return xs, ys
}

// adversarialSets returns the distributions the differential suite runs
// every engine against: tied lattices (heavy duplicates), collinear points,
// extreme magnitudes near the float64 range, mixed-scale outliers, and
// degenerate all-identical sets.
func adversarialSets(rng *rand.Rand, n int) map[string][]Point {
	lattice := reusePoints(rng, n)
	collinear := make([]Point, n)
	for i := range collinear {
		v := float64(rng.Intn(16)) * 0.5
		collinear[i] = Point{X: v, Y: 2 * v}
	}
	extreme := make([]Point, n)
	for i := range extreme {
		extreme[i] = Point{
			X: (rng.Float64() - 0.5) * 2e300,
			Y: (rng.Float64() - 0.5) * 2e300,
		}
	}
	mixed := make([]Point, n)
	for i := range mixed {
		mixed[i] = Point{X: rng.NormFloat64(), Y: rng.NormFloat64()}
		if i%7 == 0 {
			mixed[i].X *= 1e250
		}
		if i%11 == 0 {
			mixed[i].Y *= -1e250
		}
	}
	identical := make([]Point, n)
	for i := range identical {
		identical[i] = Point{X: 3.25, Y: -1.5}
	}
	return map[string][]Point{
		"lattice":   lattice,
		"collinear": collinear,
		"extreme":   extreme,
		"mixed":     mixed,
		"identical": identical,
	}
}

// engineNames lists every engine NewEngine constructs.
var engineNames = []string{"kdtree", "brute"}

// probePoints returns arbitrary (non-indexed) query points for a point set:
// points displaced off every indexed point, midpoints between neighbours in
// index order, and points far outside the set's range. They exercise the
// tree's pruning on queries that are not themselves in the tree.
func probePoints(rng *rand.Rand, pts []Point) []Point {
	var qs []Point
	for i, p := range pts {
		qs = append(qs, Point{X: p.X + 0.3, Y: p.Y - 0.2})
		if i > 0 {
			o := pts[i-1]
			qs = append(qs, Point{X: o.X/2 + p.X/2, Y: o.Y/2 + p.Y/2})
		}
	}
	for i := 0; i < 4; i++ {
		qs = append(qs, Point{X: (rng.Float64() - 0.5) * 1e6, Y: (rng.Float64() - 0.5) * 1e6})
	}
	return append(qs, Point{X: -1e308, Y: 1e308})
}

// TestEnginesMatchBruteDifferential is the cross-backend property test: on
// every adversarial distribution, every engine must return the exact
// (distance, index) k-best set bit-for-bit and exact marginal counts. The
// tree's arbitrary-point entry point (KNearestInto, used by KLJointEntropy)
// is checked the same way on non-indexed query points and on indexed points
// with nothing excluded.
func TestEnginesMatchBruteDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 17, 120} {
		for name, pts := range adversarialSets(rng, n) {
			xs, ys := coordsOf(pts)
			for _, k := range []int{1, 4, n, n + 3} {
				for _, eng := range engineNames {
					e, err := NewEngine(eng, Config{K: k})
					if err != nil {
						t.Fatalf("NewEngine(%q): %v", eng, err)
					}
					e.Build(pts, xs, ys)
					if e.Len() != n {
						t.Fatalf("%s/%s: Len=%d want %d", eng, name, e.Len(), n)
					}
					for i := range pts {
						want := engineReference(pts, pts[i], k, i)
						got := e.SelfKNearest(i, k)
						if !neighborsEqual(want, got) {
							t.Fatalf("%s/%s n=%d k=%d i=%d: got %v want %v",
								eng, name, n, k, i, got, want)
						}
						d := math.Abs(pts[i].X) / 8
						wantC := 0
						for _, p := range pts {
							if math.Abs(p.X-pts[i].X) <= d {
								wantC++
							}
						}
						if got := e.CountX(pts[i].X, d); got != wantC {
							t.Fatalf("%s/%s: CountX=%d want %d", eng, name, got, wantC)
						}
					}
				}
				tree := NewKDTree(pts)
				var buf []Neighbor
				for _, q := range append(probePoints(rng, pts), pts...) {
					want := engineReference(pts, q, k, -1)
					got := tree.KNearestInto(q, k, -1, buf)
					if !neighborsEqual(want, got) {
						t.Fatalf("kdtree/%s n=%d k=%d q=%v exclude=-1: got %v want %v",
							name, n, k, q, got, want)
					}
					buf = got[:0]
				}
			}
		}
	}
}

// TestEngineTiedLatticeRounds extends the reuse_test.go tied-lattice rounds
// to the engine interface: engines are built once and rebuilt across rounds
// of fresh lattices (the warm-reuse path), checked against the reference on
// every round.
func TestEngineTiedLatticeRounds(t *testing.T) {
	rounds := 40
	if testing.Short() {
		rounds = 10
	}
	rng := rand.New(rand.NewSource(99))
	const k = 4
	engines := map[string]Engine{}
	for _, name := range engineNames {
		e, err := NewEngine(name, Config{K: k})
		if err != nil {
			t.Fatal(err)
		}
		engines[name] = e
	}
	for round := 0; round < rounds; round++ {
		n := 30 + rng.Intn(200)
		pts := reusePoints(rng, n)
		xs, ys := coordsOf(pts)
		for name, e := range engines {
			e.Build(pts, xs, ys)
			for _, i := range []int{0, n / 3, n - 1} {
				want := engineReference(pts, pts[i], k, i)
				if got := e.SelfKNearest(i, k); !neighborsEqual(want, got) {
					t.Fatalf("round %d %s i=%d: got %v want %v", round, name, i, got, want)
				}
			}
		}
	}
}

// TestGridCellForNaN pins the derivation-time fallback: NaN or infinite
// spans must return the documented fallback of 1 instead of propagating.
func TestGridCellForNaN(t *testing.T) {
	cases := []struct {
		name   string
		sample []Point
	}{
		{"nan-x", []Point{{X: math.NaN(), Y: 0}, {X: 1, Y: 2}}},
		{"nan-y", []Point{{X: 0, Y: math.NaN()}, {X: 1, Y: 2}}},
		{"all-nan", []Point{{X: math.NaN(), Y: math.NaN()}}},
		{"inf-span", []Point{{X: -math.MaxFloat64, Y: 0}, {X: math.MaxFloat64, Y: 0}}},
		{"pos-inf", []Point{{X: math.Inf(1), Y: 0}, {X: 0, Y: 0}}},
	}
	for _, c := range cases {
		if got := GridCellFor(c.sample, 4); got != 1 {
			t.Errorf("%s: GridCellFor = %v, want fallback 1", c.name, got)
		}
	}
	// The healthy path is untouched.
	if got := GridCellFor([]Point{{X: 0, Y: 0}, {X: 8, Y: 0}}, 4); !(got > 0) || math.IsNaN(got) {
		t.Errorf("healthy sample: GridCellFor = %v, want positive finite", got)
	}
}

// TestEngineWarmAllocs pins the engine-layer reuse contract: once warm, a
// Build + full SelfKNearest pass allocates nothing on any engine.
func TestEngineWarmAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pts := reusePoints(rng, 400)
	xs, ys := coordsOf(pts)
	const k = 4
	for _, name := range engineNames {
		e, err := NewEngine(name, Config{K: k})
		if err != nil {
			t.Fatal(err)
		}
		pass := func() {
			e.Build(pts, xs, ys)
			for i := range pts {
				_ = e.SelfKNearest(i, k)
				_ = e.CountX(xs[i], 0.25)
				_ = e.CountY(ys[i], 0.25)
			}
		}
		pass() // warm-up
		if avg := testing.AllocsPerRun(20, pass); avg != 0 {
			t.Errorf("%s: %.1f allocs per warm pass, want 0", name, avg)
		}
	}
}

// TestNewEngineUnknown pins NewEngine's name switch: the two engines build,
// any other name is an error.
func TestNewEngineUnknown(t *testing.T) {
	for _, name := range []string{"annoy", "grid", "forest", ""} {
		if _, err := NewEngine(name, Config{}); err == nil {
			t.Fatalf("NewEngine(%q): want error", name)
		}
	}
	for _, name := range engineNames {
		if _, err := NewEngine(name, Config{}); err != nil {
			t.Fatalf("NewEngine(%q): %v", name, err)
		}
	}
}

// FuzzEngineDifferential cross-checks every engine against the reference on
// fuzzer-chosen point sets: bytes decode to a quantized point set (ties are
// frequent by construction), and every engine must agree with Brute. The
// tree's KNearestInto is also checked on non-indexed query points (each
// point shifted by a quarter step) and on indexed points with exclude = −1.
func FuzzEngineDifferential(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(3))
	f.Add([]byte{0, 0, 0, 0}, uint8(1))
	f.Add([]byte{255, 128, 7, 7, 7, 7, 9, 200, 13, 5}, uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, kb uint8) {
		if len(data) < 2 || len(data) > 256 {
			t.Skip()
		}
		n := len(data) / 2
		pts := make([]Point, n)
		for i := 0; i < n; i++ {
			// Quantized small-range coordinates: heavy ties, occasional
			// extreme offsets to cross the saturation path.
			x := float64(int(data[2*i])%11) * 0.5
			y := float64(int(data[2*i+1])%11) * 0.5
			if data[2*i]%13 == 0 {
				x += 1e300
			}
			if data[2*i+1]%17 == 0 {
				y -= 1e300
			}
			pts[i] = Point{X: x, Y: y}
		}
		k := int(kb)%8 + 1
		xs, ys := coordsOf(pts)
		for _, name := range engineNames {
			e, err := NewEngine(name, Config{K: k})
			if err != nil {
				t.Fatal(err)
			}
			e.Build(pts, xs, ys)
			for i := range pts {
				want := engineReference(pts, pts[i], k, i)
				if got := e.SelfKNearest(i, k); !neighborsEqual(want, got) {
					t.Fatalf("%s i=%d k=%d: got %v want %v", name, i, k, got, want)
				}
			}
		}
		tree := NewKDTree(pts)
		for i, p := range pts {
			for _, q := range []Point{p, {X: p.X + 0.25, Y: p.Y - 0.25}} {
				want := engineReference(pts, q, k, -1)
				if got := tree.KNearestInto(q, k, -1, nil); !neighborsEqual(want, got) {
					t.Fatalf("kdtree i=%d q=%v k=%d exclude=-1: got %v want %v", i, q, k, got, want)
				}
			}
		}
	})
}
