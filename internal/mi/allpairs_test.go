package mi

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// windowKinds generate the data shapes the all-pairs kernel must reproduce
// the engine path on: continuous data, ties in distances and marginals,
// values whose differences round, values whose differences overflow, exact
// duplicates and constant columns.
var windowKinds = map[string]func(rng *rand.Rand, m int) (x, y []float64){
	"gaussian": func(rng *rand.Rand, m int) ([]float64, []float64) {
		return gaussianPair(rng, m, 0.6)
	},
	"lattice4": func(rng *rand.Rand, m int) ([]float64, []float64) {
		return fillPair(m, func(int) (float64, float64) {
			return float64(rng.Intn(4)), float64(rng.Intn(4))
		})
	},
	"step0.1": func(rng *rand.Rand, m int) ([]float64, []float64) {
		// 0.1 is not a binary fraction: differences of lattice points round,
		// so marginal boundaries sit within an ulp of sample values.
		return fillPair(m, func(int) (float64, float64) {
			return float64(rng.Intn(12)) * 0.1, float64(rng.Intn(12))*0.1 - 0.3
		})
	},
	"lognormal": func(rng *rand.Rand, m int) ([]float64, []float64) {
		// Magnitudes across ~20 orders: x ± ε rounds back to x.
		return fillPair(m, func(int) (float64, float64) {
			a := rng.NormFloat64() * 10
			return math.Exp(a), math.Exp(0.5*a + 5*rng.NormFloat64())
		})
	},
	"pm1e300": func(rng *rand.Rand, m int) ([]float64, []float64) {
		// Differences of ±1e300 values overflow to +Inf.
		return fillPair(m, func(int) (float64, float64) {
			return float64(rng.Intn(3)-1) * 1e300, rng.NormFloat64() * 1e300
		})
	},
	"duplicates": func(rng *rand.Rand, m int) ([]float64, []float64) {
		xs, ys := gaussianPair(rng, (m+2)/3, 0.5)
		return fillPair(m, func(i int) (float64, float64) { return xs[i/3], ys[i/3] })
	},
	"near-constant": func(rng *rand.Rand, m int) ([]float64, []float64) {
		// Values a few ulps apart.
		return fillPair(m, func(int) (float64, float64) {
			return 3 + float64(rng.Intn(4))*0x1p-51, -2 + float64(rng.Intn(4))*0x1p-51
		})
	},
	"constant-x": func(rng *rand.Rand, m int) ([]float64, []float64) {
		return fillPair(m, func(int) (float64, float64) { return 2.5, rng.NormFloat64() })
	},
	"constant": func(rng *rand.Rand, m int) ([]float64, []float64) {
		return fillPair(m, func(int) (float64, float64) { return -1, 7 })
	},
}

func fillPair(m int, gen func(i int) (float64, float64)) (x, y []float64) {
	x = make([]float64, m)
	y = make([]float64, m)
	for i := range x {
		x[i], y[i] = gen(i)
	}
	return x, y
}

// TestAllPairsMatchesEngine is the kernel's differential test: on every data
// kind, for every k < m and m on both sides of allPairsMax, Estimate equals
// the engine path of both backends to the last bit, and each point's
// kernel state (k-th distance, intervals, counts) equals the one the
// engine's k-best set and sorted marginals give.
func TestAllPairsMatchesEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sizes := []int{2, 3, 5, 8, 13, 16, 31, 64, allPairsMax - 1, allPairsMax, allPairsMax + 1}
	for name, gen := range windowKinds {
		for _, m := range sizes {
			x, y := gen(rng, m)
			for k := 1; k < m; k++ {
				if m > 16 && k > 8 && k != m-1 {
					continue // every k at small m; the edges at large m
				}
				checkAgainstEngine(t, fmt.Sprintf("%s/m=%d/k=%d", name, m, k), x, y, k)
			}
		}
	}
}

// checkAgainstEngine compares Estimate with the engine path on both
// backends, and (for m ≤ allPairsMax) the kernel's per-point states with
// the kd-tree engine's, failing on any bit of difference.
func checkAgainstEngine(t *testing.T, label string, x, y []float64, k int) {
	t.Helper()
	m := len(x)
	got, err := NewKSG(k, BackendKDTree).Estimate(x, y)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for _, backend := range []Backend{BackendKDTree, BackendBrute} {
		e := NewKSG(k, backend)
		want := ksgMI(k, m, e.engineSum(x, y))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s/%s: Estimate %v (%#x), engine %v (%#x)", label, backend, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if m > allPairsMax {
		return
	}
	e := NewKSG(k, BackendKDTree)
	e.engineSum(x, y) // builds the engine over the window
	var a allPairs
	for i := range x {
		st := a.point(x, y, k, k, i)
		nn := e.engine.SelfKNearest(i, k)
		dx, dy := marginalRadii(e.pts[i], e.pts, nn)
		want := ksgState{
			dx: dx, dy: dy,
			nx: int32(e.engine.CountX(x[i], dx) - 1),
			ny: int32(e.engine.CountY(y[i], dy) - 1),
		}
		if !sameState(st, want) {
			t.Fatalf("%s: point %d: kernel %+v, engine %+v", label, i, st, want)
		}
		if kth := math.Float64bits(nn[len(nn)-1].Dist); st.radius() != kth {
			t.Fatalf("%s: point %d: radius %#x, k-th distance %#x", label, i, st.radius(), kth)
		}
	}
}

// sameState compares two states bit for bit (+0 and −0 differ, NaN equals
// itself).
func sameState(a, b ksgState) bool {
	bits := math.Float64bits
	return bits(a.dx) == bits(b.dx) && bits(a.dy) == bits(b.dy) &&
		a.nx == b.nx && a.ny == b.ny
}

// fuzzValues are the extremes FuzzSmallKernelDifferential draws from: signed
// zeros, subnormals, values whose differences overflow, and neighbours a few
// ulps apart.
var fuzzValues = [16]float64{
	0, math.Copysign(0, -1), 5e-324, -1e-300, 1e300, -1e300, 1e308, -1.5e308,
	1e16, 1e16 + 2, 3, 3 + 0x1p-51, 0.1, 0.30000000000000004, -0.7, 1,
}

// fuzzSample decodes one coordinate from a byte: half the bytes land on a
// 0.1-step lattice, a quarter on fuzzValues and a quarter on e^(b−224),
// which spans ~27 orders of magnitude.
func fuzzSample(b byte) float64 {
	switch {
	case b < 128:
		return float64(b%16) * 0.1
	case b < 192:
		return fuzzValues[b%16]
	default:
		return math.Exp(float64(b) - 224)
	}
}

// FuzzSmallKernelDifferential checks the all-pairs kernel against the engine
// path on arbitrary windows: data holds one (x, y) byte pair per sample, up
// to a few samples past allPairsMax, and kb picks k < m. Estimate must equal
// the engine estimate of both backends, and every kernel state the engine's,
// to the last bit.
func FuzzSmallKernelDifferential(f *testing.F) {
	f.Add(uint8(3), []byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b"))
	f.Add(uint8(0), []byte("\x80\x81\x82\x83\x84\x85\x86\x87\x88\x89\x8a\x8b\x8c\x8d"))
	f.Add(uint8(5), []byte("\xc0\xe0\xd0\xf0\xe8\xd8\xff\xc1\x10\x90\x11\x91\x8e\x8f\x86\x87"))
	f.Add(uint8(1), []byte("\x05\x05\x05\x05\x05\x05\x05\x05\x8a\x8b\x8b\x8a"))
	f.Fuzz(func(t *testing.T, kb uint8, data []byte) {
		m := min(len(data)/2, allPairsMax+4)
		if m < 2 {
			return
		}
		x, y := fillPair(m, func(i int) (float64, float64) {
			return fuzzSample(data[2*i]), fuzzSample(data[2*i+1])
		})
		checkAgainstEngine(t, "fuzz", x, y, 1+int(kb)%(m-1))
	})
}

// BenchmarkKSGCrossover times the two estimate paths, the all-pairs kernel
// and the kd-tree engine, on one warm estimator around allPairsMax: windows
// of m consecutive samples of a Gaussian pair (ρ 0.6, k = 4), each
// iteration at the next offset so no window repeats while the branch
// predictor could still remember it. The constant's comment records the
// measurement.
func BenchmarkKSGCrossover(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 1 << 14
	x, y := gaussianPair(rng, n, 0.6)
	est := NewKSG(4, BackendKDTree)
	for _, m := range []int{16, 32, 64, 80, 96, 112, 128, 160, 192, 256} {
		paths := []struct {
			name string
			sum  func(x, y []float64) float64
		}{{"kernel", est.allPairsSum}, {"tree", est.engineSum}}
		for _, p := range paths {
			if p.name == "kernel" && m > allPairsMax {
				continue
			}
			b.Run(fmt.Sprintf("m=%d/%s", m, p.name), func(b *testing.B) {
				p.sum(x[:m], y[:m])
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					o := (i * 61) % (n - m)
					sink = p.sum(x[o:o+m], y[o:o+m])
				}
			})
		}
	}
}

var sink float64
