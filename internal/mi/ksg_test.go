package mi

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"tycos/internal/mathx"
)

// gaussianPair draws n samples of a bivariate Gaussian with correlation rho.
func gaussianPair(rng *rand.Rand, n int, rho float64) (x, y []float64) {
	x = make([]float64, n)
	y = make([]float64, n)
	c := math.Sqrt(1 - rho*rho)
	for i := 0; i < n; i++ {
		a := rng.NormFloat64()
		b := rng.NormFloat64()
		x[i] = a
		y[i] = rho*a + c*b
	}
	return x, y
}

func TestKSGGaussianGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	est := NewKSG(4, BackendKDTree)
	for _, rho := range []float64{0, 0.5, 0.9} {
		x, y := gaussianPair(rng, 2000, rho)
		got, err := est.Estimate(x, y)
		if err != nil {
			t.Fatal(err)
		}
		want := GaussianMI(rho)
		if math.Abs(got-want) > 0.08 {
			t.Errorf("rho=%v: KSG = %.4f, analytic = %.4f", rho, got, want)
		}
	}
}

// TestKSGNullBias pins the digamma convention tightly: algorithm 2 is
// near-unbiased at ρ = 0, so the estimate averaged over independent draws
// must sit within 0.02 nats of zero at m = 2000. A convention mistake —
// e.g. evaluating ψ on the count including the query point while keeping
// the −1/k term — shifts every estimate by ⟨1/n_x + 1/n_y⟩ ≈ 0.03 nats at
// this m, which the looser 0.08 ground-truth tolerance would let through
// but this test catches.
func TestKSGNullBias(t *testing.T) {
	const (
		m      = 2000
		rounds = 8
	)
	est := NewKSG(4, BackendKDTree)
	var mean float64
	for seed := int64(0); seed < rounds; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		x, y := gaussianPair(rng, m, 0)
		got, err := est.Estimate(x, y)
		if err != nil {
			t.Fatal(err)
		}
		mean += got / rounds
	}
	if math.Abs(mean) > 0.02 {
		t.Errorf("mean KSG bias at rho=0, m=%d over %d rounds = %+.4f nats, want |bias| ≤ 0.02", m, rounds, mean)
	}
}

func TestKSGDetectsNonlinearDependence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 1200
	x := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = rng.Float64()*8 - 4
		y[i] = x[i]*x[i] + 0.1*rng.Float64() // quadratic, PCC ≈ 0
	}
	est := NewKSG(4, BackendKDTree)
	mi, err := est.Estimate(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if mi < 1.0 {
		t.Errorf("quadratic dependence MI = %.4f, want strongly positive", mi)
	}
	// Independent control stays near zero.
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	mi, err = est.Estimate(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mi) > 0.1 {
		t.Errorf("independent MI = %.4f, want ≈0", mi)
	}
}

func TestKSGBackendsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x, y := gaussianPair(rng, 400, 0.7)
	var results []float64
	for _, b := range []Backend{BackendKDTree, BackendBrute} {
		got, err := NewKSG(4, b).Estimate(x, y)
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		results = append(results, got)
	}
	for i := 1; i < len(results); i++ {
		if !sameBits(results[i], results[0]) {
			t.Errorf("backend %d result %.17g differs from kdtree %.17g", i, results[i], results[0])
		}
	}
}

func TestKSGErrors(t *testing.T) {
	est := NewKSG(4, BackendKDTree)
	if _, err := est.Estimate([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch must fail")
	}
	if _, err := est.Estimate(nil, nil); !errors.Is(err, ErrTooFewSamples) {
		t.Error("empty input must be ErrTooFewSamples")
	}
	if _, err := est.Estimate([]float64{1, 2, 3}, []float64{4, 5, 6}); !errors.Is(err, ErrTooFewSamples) {
		t.Error("m <= k must be ErrTooFewSamples")
	}
}

func TestKSGInvariantToUniformAffineTransform(t *testing.T) {
	// Scaling both axes by the same factor and shifting each axis
	// independently preserves every L∞ neighbourhood, so the KSG estimate
	// must be bit-for-bit stable (up to fp rounding). Note that scaling a
	// single axis is NOT an invariance: it reweights the max-norm.
	rng := rand.New(rand.NewSource(21))
	x, y := gaussianPair(rng, 800, 0.8)
	est := NewKSG(4, BackendKDTree)
	base, _ := est.Estimate(x, y)
	x2 := make([]float64, len(x))
	y2 := make([]float64, len(y))
	for i := range x {
		x2[i] = 3*x[i] + 10
		y2[i] = 3*y[i] - 5
	}
	scaled, _ := est.Estimate(x2, y2)
	// Boundary counts (|Δx| ≤ dx) can flip by one point when rounding moves
	// a sample across the marginal boundary, so allow a small drift.
	if math.Abs(base-scaled) > 0.01 {
		t.Errorf("uniform affine transform changed KSG: %.6f vs %.6f", base, scaled)
	}
}

func TestKSGDefaultK(t *testing.T) {
	e := NewKSG(0, BackendKDTree)
	if e.K() != DefaultK {
		t.Errorf("K() = %d, want %d", e.K(), DefaultK)
	}
	if e.Name() == "" || Backend(99).String() == "" || NormNone.String() == "" {
		t.Error("names must be non-empty")
	}
}

func TestNormalize(t *testing.T) {
	x := make([]float64, 100)
	y := make([]float64, 100)
	rng := rand.New(rand.NewSource(3))
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = x[i] + 0.1*rng.NormFloat64()
	}
	raw := 2.0
	if Normalize(raw, x, y, NormNone) != raw {
		t.Error("NormNone must pass through")
	}
	me := Normalize(raw, x, y, NormMaxEntropy)
	if me <= 0 || me > 1 {
		t.Errorf("max-entropy normalization out of range: %v", me)
	}
	if want := raw / math.Log(100); math.Abs(me-want) > 1e-12 {
		t.Errorf("max-entropy = %v, want %v", me, want)
	}
	jh := Normalize(raw, x, y, NormJointHistogram)
	if jh < 0 || jh > 1 {
		t.Errorf("joint-histogram normalization out of range: %v", jh)
	}
	// Negative raw MI passes through scaled: the ordering among near-zero
	// scores is gradient texture for the search, and σ > 0 keeps negative
	// scores out of accepted results.
	if got, want := Normalize(-0.5, x, y, NormMaxEntropy), -0.5/math.Log(100); math.Abs(got-want) > 1e-12 {
		t.Errorf("negative raw MI = %v, want %v (scaled, unclamped)", got, want)
	}
	// Huge raw MI clamps to 1.
	if Normalize(1e9, x, y, NormJointHistogram) != 1 {
		t.Error("oversized normalized MI must clamp to 1")
	}
}

// TestSizeTermsMatchCalls checks that the tabulated per-size constants are
// bit for bit the calls they replace, inside the table and past it, so
// neither a normalized score nor an estimate moves by a bit.
func TestSizeTermsMatchCalls(t *testing.T) {
	for m := -2; m < 2*tabulatedSizes; m++ {
		if got, want := math.Float64bits(logSize(m)), math.Float64bits(math.Log(float64(m))); got != want {
			t.Fatalf("logSize(%d) bits %#x, want %#x", m, got, want)
		}
		if got, want := math.Float64bits(psiSize(m)), math.Float64bits(mathx.Digamma(float64(m))); got != want {
			t.Fatalf("psiSize(%d) bits %#x, want %#x", m, got, want)
		}
	}
}
