package mi

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestKLEntropyUniform(t *testing.T) {
	// Differential entropy of U(0, a) is log(a).
	rng := rand.New(rand.NewSource(31))
	for _, a := range []float64{1, 4} {
		v := make([]float64, 4000)
		for i := range v {
			v[i] = rng.Float64() * a
		}
		h, err := KLEntropy(v, 4)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(h-math.Log(a)) > 0.05 {
			t.Errorf("U(0,%v) entropy = %.4f, want %.4f", a, h, math.Log(a))
		}
	}
}

func TestKLEntropyGaussian(t *testing.T) {
	// H(N(0,σ²)) = ½·log(2πeσ²).
	rng := rand.New(rand.NewSource(33))
	v := make([]float64, 5000)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	h, err := KLEntropy(v, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5 * math.Log(2*math.Pi*math.E)
	if math.Abs(h-want) > 0.05 {
		t.Errorf("gaussian entropy = %.4f, want %.4f", h, want)
	}
}

func TestKLJointEntropyIndependentGaussians(t *testing.T) {
	// Independent ⇒ H(X,Y) = H(X) + H(Y) = log(2πe).
	rng := rand.New(rand.NewSource(35))
	n := 4000
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	h, err := KLJointEntropy(x, y, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Log(2 * math.Pi * math.E)
	if math.Abs(h-want) > 0.08 {
		t.Errorf("joint entropy = %.4f, want %.4f", h, want)
	}
}

func TestEntropyMIIdentity(t *testing.T) {
	// I(X;Y) = H(X) + H(Y) − H(X,Y); the three kNN estimators should agree
	// approximately with the direct KSG estimate.
	rng := rand.New(rand.NewSource(37))
	x, y := gaussianPair(rng, 3000, 0.8)
	hx, _ := KLEntropy(x, 4)
	hy, _ := KLEntropy(y, 4)
	hxy, _ := KLJointEntropy(x, y, 4)
	indirect := hx + hy - hxy
	direct, _ := NewKSG(4, BackendKDTree).Estimate(x, y)
	if math.Abs(indirect-direct) > 0.15 {
		t.Errorf("identity mismatch: H-based %.4f vs KSG %.4f", indirect, direct)
	}
}

func TestEntropyErrors(t *testing.T) {
	if _, err := KLEntropy([]float64{1, 2}, 4); !errors.Is(err, ErrTooFewSamples) {
		t.Error("too few samples must fail")
	}
	if _, err := KLJointEntropy([]float64{1}, []float64{1, 2}, 2); err == nil {
		t.Error("mismatched lengths must fail")
	}
	if _, err := KLJointEntropy(nil, nil, 2); !errors.Is(err, ErrTooFewSamples) {
		t.Error("empty joint must fail")
	}
}

func TestKLEntropyDuplicates(t *testing.T) {
	// A constant series has no continuous density: every ε is zero and the
	// estimator must report the divergence as −Inf, not NaN and not a finite
	// value manufactured by flooring log 0.
	constant := make([]float64, 50)
	h, err := KLEntropy(constant, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(h, -1) {
		t.Errorf("entropy of constant series = %v, want -Inf", h)
	}

	// A few-valued series where every point has ≥ k ties at distance zero is
	// equally degenerate (100 samples over 3 values, k=4: each value appears
	// 33–34 times, so the 4th neighbour is always a tie).
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i % 3)
	}
	h, err = KLEntropy(v, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(h, -1) {
		t.Errorf("entropy of 3-valued series = %v, want -Inf", h)
	}

	// Partially tied data: a continuous sample with a handful of exact
	// duplicates spliced in. The tied points are excluded from the average,
	// so the estimate must stay finite and close to the untied estimate
	// instead of being dragged toward −∞ by floored log 0 terms.
	rng := rand.New(rand.NewSource(41))
	clean := make([]float64, 2000)
	for i := range clean {
		clean[i] = rng.Float64()
	}
	hClean, err := KLEntropy(clean, 4)
	if err != nil {
		t.Fatal(err)
	}
	mixed := append([]float64(nil), clean...)
	for i := 0; i < 40; i++ { // 8 clusters × 5 copies: every cluster member's ε=0 at k=4
		mixed = append(mixed, clean[i%8])
	}
	hMixed, err := KLEntropy(mixed, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(hMixed) || math.IsInf(hMixed, 0) {
		t.Fatalf("entropy of mixed data = %v, want finite", hMixed)
	}
	if math.Abs(hMixed-hClean) > 0.1 {
		t.Errorf("mixed entropy %.4f strays from clean %.4f by more than 0.1", hMixed, hClean)
	}

	// Same contract for the joint estimator.
	cx := make([]float64, 50)
	cy := make([]float64, 50)
	hj, err := KLJointEntropy(cx, cy, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(hj, -1) {
		t.Errorf("joint entropy of constant pair = %v, want -Inf", hj)
	}
}

func TestKthDistance1D(t *testing.T) {
	s := []float64{0, 1, 3, 6, 10}
	// From value 3 (self excluded): neighbours at distances 2 (1), 3 (0 and
	// 6), 7 (10).
	if d := kthDistance1D(s, 3, 1); d != 2 {
		t.Errorf("k=1 dist = %v", d)
	}
	if d := kthDistance1D(s, 3, 3); d != 3 {
		t.Errorf("k=3 dist = %v", d)
	}
	if d := kthDistance1D(s, 3, 4); d != 7 {
		t.Errorf("k=4 dist = %v", d)
	}
	// k beyond available points returns the largest seen distance.
	if d := kthDistance1D(s, 3, 10); d != 7 {
		t.Errorf("oversized k dist = %v", d)
	}
}

func TestTopK(t *testing.T) {
	tk := NewTopK(3, 0.1)
	if tk.Threshold() != 0.1 {
		t.Error("seed threshold expected before fill")
	}
	tk.Offer(0.5)
	tk.Offer(0.2)
	if tk.Threshold() != 0.1 {
		t.Error("threshold must stay at seed until K values arrive")
	}
	tk.Offer(0.8)
	if tk.Threshold() != 0.2 {
		t.Errorf("threshold = %v, want 0.2 (min of top-3)", tk.Threshold())
	}
	if tk.Offer(0.1) {
		t.Error("value below threshold must be rejected")
	}
	if !tk.Offer(0.9) {
		t.Error("value above threshold must enter")
	}
	if tk.Threshold() != 0.5 {
		t.Errorf("threshold after update = %v, want 0.5", tk.Threshold())
	}
	vals := tk.Values()
	if len(vals) != 3 || vals[0] != 0.5 || vals[2] != 0.9 {
		t.Errorf("values = %v", vals)
	}
	if tk.Len() != 3 {
		t.Errorf("len = %d", tk.Len())
	}
	// k < 1 is clamped.
	if NewTopK(0, 0).k != 1 {
		t.Error("k must clamp to 1")
	}
	// Reset makes a used tracker a new one, reusing its storage.
	tk.Reset(2, 0.3)
	if tk.Len() != 0 || tk.Threshold() != 0.3 {
		t.Errorf("after Reset: len %d, threshold %v, want 0 and the new seed", tk.Len(), tk.Threshold())
	}
	if n := testing.AllocsPerRun(10, func() {
		tk.Reset(2, 0.3)
		tk.Offer(0.4)
		tk.Offer(0.6)
	}); n != 0 || tk.Threshold() != 0.4 {
		t.Errorf("a reset tracker allocates %v times and reads %v, want 0 and 0.4", n, tk.Threshold())
	}
}
