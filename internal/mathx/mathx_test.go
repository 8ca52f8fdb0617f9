package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDigammaKnownValues(t *testing.T) {
	// Reference values from Abramowitz & Stegun / standard tables.
	cases := []struct {
		x    float64
		want float64
	}{
		{1, -Euler},
		{0.5, -Euler - 2*math.Ln2},
		{2, 1 - Euler},
		{3, 1.5 - Euler},
		{4, 1 + 0.5 + 1.0/3.0 - Euler},
		{10, Harmonic(9) - Euler},
		{100, Harmonic(99) - Euler},
		{1.5, 2 - Euler - 2*math.Ln2},
	}
	for _, c := range cases {
		got := Digamma(c.x)
		if !AlmostEqual(got, c.want, 1e-11) {
			t.Errorf("Digamma(%v) = %.15f, want %.15f", c.x, got, c.want)
		}
	}
}

func TestDigammaRecurrenceProperty(t *testing.T) {
	// ψ(x+1) = ψ(x) + 1/x must hold everywhere in the positive domain.
	f := func(raw float64) bool {
		x := math.Mod(math.Abs(raw), 50) + 0.01
		lhs := Digamma(x + 1)
		rhs := Digamma(x) + 1/x
		return AlmostEqual(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDigammaReflection(t *testing.T) {
	// ψ(1−x) − ψ(x) = π cot(πx) for non-integer x.
	for _, x := range []float64{0.25, 0.75, 0.1, 0.9, 0.33} {
		lhs := Digamma(1-x) - Digamma(x)
		rhs := math.Pi / math.Tan(math.Pi*x)
		if !AlmostEqual(lhs, rhs, 1e-9) {
			t.Errorf("reflection failed at x=%v: lhs=%v rhs=%v", x, lhs, rhs)
		}
	}
}

func TestDigammaPoles(t *testing.T) {
	for _, x := range []float64{0, -1, -2, -10} {
		if !math.IsNaN(Digamma(x)) {
			t.Errorf("Digamma(%v) should be NaN at pole, got %v", x, Digamma(x))
		}
	}
}

func TestDigammaIntMatchesDigamma(t *testing.T) {
	for n := 1; n <= 200; n++ {
		a, b := DigammaInt(n), Digamma(float64(n))
		if !AlmostEqual(a, b, 1e-10) {
			t.Fatalf("DigammaInt(%d)=%v != Digamma=%v", n, a, b)
		}
	}
	if !math.IsNaN(DigammaInt(0)) || !math.IsNaN(DigammaInt(-3)) {
		t.Error("DigammaInt of non-positive n should be NaN")
	}
}

func TestDigammaMonotoneIncreasing(t *testing.T) {
	prev := Digamma(0.5)
	for x := 0.6; x < 30; x += 0.1 {
		cur := Digamma(x)
		if cur <= prev {
			t.Fatalf("Digamma not increasing at x=%v: %v <= %v", x, cur, prev)
		}
		prev = cur
	}
}

func TestHarmonic(t *testing.T) {
	if Harmonic(0) != 0 {
		t.Error("H_0 must be 0")
	}
	if !AlmostEqual(Harmonic(1), 1, 0) {
		t.Error("H_1 must be 1")
	}
	if !AlmostEqual(Harmonic(4), 1+0.5+1.0/3+0.25, 1e-15) {
		t.Error("H_4 wrong")
	}
}

func TestAlmostEqualEdgeCases(t *testing.T) {
	if AlmostEqual(math.NaN(), 1, 1) {
		t.Error("NaN must not compare equal")
	}
	if !AlmostEqual(math.Inf(1), math.Inf(1), 0) {
		t.Error("equal infinities must compare equal")
	}
	if AlmostEqual(math.Inf(1), math.Inf(-1), 1e300) {
		t.Error("opposite infinities must not compare equal")
	}
}
