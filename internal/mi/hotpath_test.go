package mi

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestKSGEstimateAllocs pins the tentpole guarantee: after the first call
// warms the per-estimator scratch, KSG.Estimate runs allocation-free on both
// backends, on a window the all-pairs kernel serves and on one the engine
// serves.
func TestKSGEstimateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, m := range []int{allPairsMax, 500} {
		x, y := gaussianPair(rng, m, 0.6)
		for _, backend := range []Backend{BackendKDTree, BackendBrute} {
			est := NewKSG(4, backend)
			for warm := 0; warm < 16; warm++ {
				if _, err := est.Estimate(x, y); err != nil {
					t.Fatal(err)
				}
			}
			got := testing.AllocsPerRun(10, func() {
				if _, err := est.Estimate(x, y); err != nil {
					t.Fatal(err)
				}
			})
			if got != 0 {
				t.Errorf("m=%d/%s: Estimate allocates %v/op steady-state, want 0", m, backend, got)
			}
		}
	}
}

// ksgSink keeps TestKSGBuildsNoEngineForKernelWindows' estimator on the
// heap, so the count does not hinge on escape analysis.
var ksgSink *KSG

// TestKSGBuildsNoEngineForKernelWindows checks that the k-NN engine is
// built on first use: a new estimator and one estimate of a window the
// all-pairs kernel serves allocate only the estimator, on both backends.
// Windows above the bound, which do build the engine, are covered by the
// engine differential tests and TestKSGEstimateAllocs.
func TestKSGBuildsNoEngineForKernelWindows(t *testing.T) {
	x, y := gaussianPair(rand.New(rand.NewSource(10)), 32, 0.6)
	for _, backend := range []Backend{BackendKDTree, BackendBrute} {
		got := testing.AllocsPerRun(10, func() {
			ksgSink = NewKSG(4, backend)
			if _, err := ksgSink.Estimate(x, y); err != nil {
				t.Fatal(err)
			}
		})
		if got != 1 {
			t.Errorf("%s: NewKSG and one 32-sample estimate allocate %v times, want 1 (the estimator)", backend, got)
		}
		if ksgSink.engine != nil {
			t.Errorf("%s: a kernel window built the engine", backend)
		}
	}
}

// TestKSGRenewMatchesFresh checks that a renewed estimator is a new one:
// after estimates at another k and backend, Renew gives the bits of
// NewKSG and counts Estimates from zero, on windows on both sides of the
// all-pairs bound, and so does a renewed zero KSG. A renewal that keeps k
// and the backend keeps the warm engine, so it estimates without
// allocating.
func TestKSGRenewMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	small, smallY := gaussianPair(rng, 40, 0.5)
	large, largeY := gaussianPair(rng, 300, 0.5)
	est := NewKSG(6, BackendBrute)
	for _, w := range [][2][]float64{{small, smallY}, {large, largeY}} {
		if _, err := est.Estimate(w[0], w[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, backend := range []Backend{BackendKDTree, BackendBrute} {
		est.Renew(3, backend)
		fresh := NewKSG(3, backend)
		for _, w := range [][2][]float64{{small, smallY}, {large, largeY}} {
			got, err := est.Estimate(w[0], w[1])
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Estimate(w[0], w[1])
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s, m=%d: renewed estimate %v, new %v", backend, len(w[0]), got, want)
			}
		}
		if est.Estimates() != 2 {
			t.Errorf("%s: renewed estimator counts %d estimates, want 2", backend, est.Estimates())
		}
	}
	var zero KSG
	zero.Renew(0, BackendKDTree)
	for _, w := range [][2][]float64{{small, smallY}, {large, largeY}} {
		got, err := zero.Estimate(w[0], w[1])
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewKSG(0, BackendKDTree).Estimate(w[0], w[1])
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("m=%d: renewed zero KSG estimate %v, new %v", len(w[0]), got, want)
		}
	}
	est.Renew(3, BackendBrute)
	if got := testing.AllocsPerRun(5, func() {
		if _, err := est.Estimate(large, largeY); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("an estimate after a renewal that kept k and the backend allocates %v times, want 0", got)
	}
}

// TestIncrementalSlideAllocs pins the steady-state sliding cost: once the
// state and list slabs and the scratch are warm, a remove+insert+MI step
// stays off the heap.
func TestIncrementalSlideAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n, w := 3000, 400
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = 0.6*x[i] + 0.4*rng.NormFloat64()
	}
	inc := NewIncremental(4)
	for i := 0; i < w; i++ {
		inc.Insert(i, x[i], y[i])
	}
	pos := 0
	slide := func() {
		inc.Remove(pos)
		inc.Insert(pos+w, x[pos+w], y[pos+w])
		if _, err := inc.MI(); err != nil {
			t.Fatal(err)
		}
		pos++
	}
	for warm := 0; warm < 200; warm++ {
		slide()
	}
	if got := testing.AllocsPerRun(100, slide); got != 0 {
		t.Errorf("steady-state slide allocates %v/op, want 0", got)
	}
}

// TestIncrementalReloadAllocs pins the warm whole-window Reload: repositioning
// an estimator on a same-sized window reuses the multisets, id list, state
// and list slabs and k-d tree — on a window the all-pairs kernel serves and
// on one the tree serves.
func TestIncrementalReloadAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, m := range []int{allPairsMax, 300} {
		ids := make([]int, m)
		xs := make([]float64, m)
		ys := make([]float64, m)
		fill := func(base int) {
			for i := 0; i < m; i++ {
				ids[i] = base + i
				xs[i] = rng.NormFloat64()
				ys[i] = 0.5*xs[i] + 0.5*rng.NormFloat64()
			}
		}
		fill(0)
		inc := newBulk(4, ids, xs, ys)
		for warm := 0; warm < 16; warm++ {
			fill(warm * m)
			inc.Reload(ids, xs, ys)
		}
		got := testing.AllocsPerRun(10, func() {
			inc.Reload(ids, xs, ys)
			if _, err := inc.MI(); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("m=%d: warm Reload allocates %v/op, want 0", m, got)
		}
	}
}

// TestBatchIncrementalAgreeOnTies is the formula-alignment regression test:
// the batch and incremental estimators must agree to the last bit under the
// shared algorithm-2 convention (ψ(n_x), counts excluding self, floored at
// 1) — on continuous data AND on data with heavy coordinate ties, where any
// divergence in marginal-count or tie-break conventions surfaces immediately.
func TestBatchIncrementalAgreeOnTies(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cases := map[string]func(i int) (float64, float64){
		"continuous": func(int) (float64, float64) {
			x := rng.NormFloat64()
			return x, 0.7*x + 0.3*rng.NormFloat64()
		},
		"quantized": func(int) (float64, float64) {
			// Few-valued coordinates: ties in both marginals and in joint
			// distances on almost every query.
			return float64(rng.Intn(6)), float64(rng.Intn(6))
		},
		"mixed": func(i int) (float64, float64) {
			if i%3 == 0 {
				return float64(i % 5), float64(i % 4)
			}
			return rng.NormFloat64(), rng.NormFloat64()
		},
	}
	for name, gen := range cases {
		const m = 250
		xs := make([]float64, m)
		ys := make([]float64, m)
		ids := make([]int, m)
		for i := 0; i < m; i++ {
			xs[i], ys[i] = gen(i)
			ids[i] = i
		}
		for _, backend := range []Backend{BackendKDTree, BackendBrute} {
			batch, err := NewKSG(4, backend).Estimate(xs, ys)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, backend, err)
			}
			inc := newBulk(4, ids, xs, ys)
			incremental, err := inc.MI()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !sameBits(batch, incremental) {
				t.Errorf("%s/%s: batch %.17g vs incremental %.17g (Δ %.3g)",
					name, backend, batch, incremental, math.Abs(batch-incremental))
			}
		}
	}
}

// TestGaussianMIPerfectCorrelation pins the |ρ| ≥ 1 contract: +Inf, never a
// log(0) leak or NaN.
func TestGaussianMIPerfectCorrelation(t *testing.T) {
	for _, rho := range []float64{1, -1, 1.5, -2} {
		if got := GaussianMI(rho); !math.IsInf(got, 1) {
			t.Errorf("GaussianMI(%v) = %v, want +Inf", rho, got)
		}
	}
	if got := GaussianMI(0); got != 0 {
		t.Errorf("GaussianMI(0) = %v, want 0", got)
	}
	if got := GaussianMI(0.5); math.IsInf(got, 0) || math.IsNaN(got) || got <= 0 {
		t.Errorf("GaussianMI(0.5) = %v, want finite positive", got)
	}
}

// TestEstimatesCounterConsistency pins the success-only counter semantics
// shared by the batch and incremental estimators, and Reload's fresh-start
// reset.
func TestEstimatesCounterConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	x, y := gaussianPair(rng, 64, 0.5)

	est := NewKSG(4, BackendKDTree)
	if _, err := est.Estimate(x, y); err != nil {
		t.Fatal(err)
	}
	if _, err := est.Estimate(x[:2], y[:2]); !errors.Is(err, ErrTooFewSamples) {
		t.Fatalf("expected ErrTooFewSamples, got %v", err)
	}
	if est.Estimates() != 1 {
		t.Errorf("KSG.Estimates = %d after 1 success + 1 failure, want 1", est.Estimates())
	}

	ids := make([]int, len(x))
	for i := range ids {
		ids[i] = i
	}
	inc := newBulk(4, ids, x, y)
	if inc.Estimates() != 0 {
		t.Errorf("fresh Incremental.Estimates = %d, want 0", inc.Estimates())
	}
	if _, err := inc.MI(); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.MI(); err != nil {
		t.Fatal(err)
	}
	if inc.Estimates() != 2 {
		t.Errorf("Incremental.Estimates = %d after 2 successes, want 2", inc.Estimates())
	}
	empty := NewIncremental(4)
	if _, err := empty.MI(); !errors.Is(err, ErrTooFewSamples) {
		t.Fatalf("expected ErrTooFewSamples, got %v", err)
	}
	if empty.Estimates() != 0 {
		t.Errorf("failed MI still counted: %d", empty.Estimates())
	}
	inc.Reload(ids, x, y)
	if inc.Estimates() != 0 {
		t.Errorf("Reload must reset Estimates, got %d", inc.Estimates())
	}
}

// TestReloadMatchesBulk verifies a reused estimator Reloaded onto a window is
// indistinguishable from a fresh bulk build: same MI to the last bit, same
// op counters.
func TestReloadMatchesBulk(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	reused := NewIncremental(4)
	for round := 0; round < 10; round++ {
		m := 30 + rng.Intn(200)
		ids := make([]int, m)
		xs := make([]float64, m)
		ys := make([]float64, m)
		for i := 0; i < m; i++ {
			ids[i] = round*1000 + i
			xs[i] = rng.NormFloat64()
			ys[i] = 0.4*xs[i] + 0.6*rng.NormFloat64()
		}
		fresh := NewIncrementalBulk(4, 0.5, ids, xs, ys)
		reused.Reload(ids, xs, ys)
		fm, ferr := fresh.MI()
		rm, rerr := reused.MI()
		if (ferr == nil) != (rerr == nil) {
			t.Fatalf("round %d: error mismatch %v vs %v", round, ferr, rerr)
		}
		// Exact float inequality is deliberate: bit-identity is the Reload
		// contract. (The linter does not parse test files, so no allow
		// directive is needed.)
		if fm != rm {
			t.Errorf("round %d: fresh %.17g vs reloaded %.17g", round, fm, rm)
		}
		if fresh.Ops() != reused.Ops() {
			t.Errorf("round %d: ops diverged: fresh %+v vs reloaded %+v", round, fresh.Ops(), reused.Ops())
		}
	}
}

// BenchmarkKSGEstimate times one warm estimator per backend on windows of
// 16 and 64 samples, which the all-pairs kernel serves, and of 500, which
// the engine serves — the kernels a batch search spends its time in. CI's
// hotpath-bench job runs it as a smoke; perfsuite's mi.ksg_estimate_us
// probes time Estimate at m = 32 and 128, which the kernel serves, and at
// m = 512.
func BenchmarkKSGEstimate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := gaussianPair(rng, 500, 0.6)
	for _, m := range []int{16, 64, 500} {
		for _, backend := range []Backend{BackendKDTree, BackendBrute} {
			est := NewKSG(4, backend)
			b.Run(fmt.Sprintf("m=%d/%s", m, backend), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := est.Estimate(x[:m], y[:m]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ar1Pair returns n samples of a correlated AR(1) pair (φ 0.9, noise 0.5),
// the shape of a search's windows.
func ar1Pair(rng *rand.Rand, n int) (x, y []float64) {
	x, y = make([]float64, n), make([]float64, n)
	ar := 0.0
	for i := range x {
		ar = 0.9*ar + rng.NormFloat64()
		x[i], y[i] = ar, ar+0.5*rng.NormFloat64()
	}
	return x, y
}

// BenchmarkIncrementalSlide times one slide step — a Remove, an Insert and
// MI() — of a window moving along an AR(1) pair with k = 4, at the sizes of
// perfsuite's mi.inc_slide_us probes and below.
func BenchmarkIncrementalSlide(b *testing.B) {
	const n = 1 << 14
	x, y := ar1Pair(rand.New(rand.NewSource(2)), n)
	for _, m := range []int{32, 128, 512} {
		ids := make([]int, m)
		for i := range ids {
			ids[i] = i
		}
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			inc := NewIncremental(4)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lo := i % (n - m)
				if lo == 0 {
					b.StopTimer()
					inc.Reload(ids, x[:m], y[:m])
					b.StartTimer()
				}
				inc.Remove(lo)
				inc.Insert(lo+m, x[lo+m], y[lo+m])
				if _, err := inc.MI(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIncrementalReload measures the warm whole-window reposition that
// the incremental scorer performs on every cache miss, on windows of an
// AR(1) pair with k = 4 — each iteration at the next offset, so no window
// repeats while the branch predictor could still remember it.
func BenchmarkIncrementalReload(b *testing.B) {
	const n = 1 << 14
	x, y := ar1Pair(rand.New(rand.NewSource(2)), n)
	for _, m := range []int{32, 128, 512} {
		ids := make([]int, m)
		for i := range ids {
			ids[i] = i
		}
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			inc := NewIncremental(4)
			inc.Reload(ids, x[:m], y[:m])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o := (i * 61) % (n - m)
				inc.Reload(ids, x[o:o+m], y[o:o+m])
			}
		})
	}
}
