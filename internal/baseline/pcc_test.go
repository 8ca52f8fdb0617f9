package baseline

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tycos/internal/freelist"
)

func TestPearsonExactCases(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	if r := Pearson(x, x); math.Abs(r-1) > 1e-12 {
		t.Errorf("self correlation = %v", r)
	}
	neg := []float64{5, 4, 3, 2, 1}
	if r := Pearson(x, neg); math.Abs(r+1) > 1e-12 {
		t.Errorf("anti correlation = %v", r)
	}
	if r := Pearson(x, []float64{2, 2, 2, 2, 2}); r != 0 {
		t.Errorf("constant y correlation = %v", r)
	}
	if r := Pearson(x, []float64{1, 2}); r != 0 {
		t.Errorf("mismatched length correlation = %v", r)
	}
	if r := Pearson([]float64{1}, []float64{1}); r != 0 {
		t.Errorf("single sample correlation = %v", r)
	}
}

func TestPearsonMissesQuadratic(t *testing.T) {
	// The defining weakness: y = x² on symmetric x has r ≈ 0 despite the
	// perfect functional dependence.
	n := 2001
	x := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = -4 + 8*float64(i)/float64(n-1)
		y[i] = x[i] * x[i]
	}
	if r := math.Abs(Pearson(x, y)); r > 0.05 {
		t.Errorf("quadratic |r| = %v, want ≈0", r)
	}
}

func TestPearsonRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(200)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		r := Pearson(x, y)
		return r >= -1-1e-12 && r <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPearsonSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(100)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		return math.Abs(Pearson(x, y)-Pearson(y, x)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSlidingPCCFindsLinearSegment(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 400
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	for i := 150; i < 250; i++ {
		y[i] = 2*x[i] + 0.1*rng.NormFloat64()
	}
	ws, err := SlidingPCC(x, y, 30, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) == 0 {
		t.Fatal("sliding PCC found nothing")
	}
	found := false
	for _, w := range ws {
		if w.Start >= 120 && w.End <= 280 {
			found = true
			if w.MI < 0.8 {
				t.Errorf("window %v carries score below threshold", w)
			}
		}
	}
	if !found {
		t.Errorf("linear segment not localised: %v", ws)
	}
}

func TestSlidingPCCMissesDelayedSegment(t *testing.T) {
	// The same construction shifted by 40 samples must vanish for PCC,
	// reproducing the ✗ entries of Table 1.
	rng := rand.New(rand.NewSource(5))
	n := 400
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	for i := 150; i < 250; i++ {
		y[i+40] = 2*x[i] + 0.1*rng.NormFloat64()
	}
	ws, err := SlidingPCC(x, y, 30, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 0 {
		t.Errorf("PCC should miss the delayed relation, found %v", ws)
	}
}

func TestPearsonConstantInputsRobust(t *testing.T) {
	// The naive sxx == 0 guard is defeated by floating-point rounding: for a
	// constant series the summed (v−mean)² terms can come out as a tiny
	// nonzero float, and the quotient of two rounding errors then reads as
	// |r| = 1. The degenerate-input contract says any constant side is 0.
	constSmall := make([]float64, 64)
	constHuge := make([]float64, 64)
	varying := make([]float64, 64)
	for i := range constSmall {
		constSmall[i] = 0.1
		constHuge[i] = 1e155
		varying[i] = math.Sin(float64(i) / 3)
	}
	cases := []struct {
		name string
		x, y []float64
	}{
		{"const-const", constSmall, constSmall},
		{"const-huge", constHuge, constSmall},
		{"const-varying", constSmall, varying},
		{"varying-const", varying, constHuge},
	}
	for _, tc := range cases {
		if r := Pearson(tc.x, tc.y); r != 0 {
			t.Errorf("Pearson(%s) = %v, want 0", tc.name, r)
		}
	}
}

func TestSlidingPCCSkipsDegenerateWindows(t *testing.T) {
	// A flatlined stretch in the middle of correlated data: positions whose
	// window lies wholly inside the flatline are degenerate and must be
	// skipped (counted, never scored), splitting the surrounding run.
	rng := rand.New(rand.NewSource(11))
	n := 200
	size := 20
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = 2*x[i] + 0.05*rng.NormFloat64()
	}
	for i := 80; i < 120; i++ {
		x[i] = 0.1 // sensor flatline on one side only
	}
	ws, stats, err := SlidingPCCDetail(x, y, size, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	wantDegenerate := 40 - size + 1 // windows wholly inside the flatline
	if stats.Degenerate != wantDegenerate {
		t.Errorf("Degenerate = %d, want %d", stats.Degenerate, wantDegenerate)
	}
	if stats.Windows != n-size+1 {
		t.Errorf("Windows = %d, want %d", stats.Windows, n-size+1)
	}
	for _, w := range ws {
		if w.Start >= 80 && w.End < 120 {
			t.Errorf("window %v lies wholly inside the flatline; degenerate positions must not score", w)
		}
		if math.IsNaN(w.MI) || w.MI > 1+1e-12 {
			t.Errorf("window %v carries a garbage score", w)
		}
	}
}

func TestSlidingPCCAllConstantScoresNothing(t *testing.T) {
	// Both sides fully constant: with threshold 0 every position would
	// previously open one garbage run at |r| = 1; under the contract every
	// position is degenerate and the result is empty.
	x := make([]float64, 50)
	y := make([]float64, 50)
	for i := range x {
		x[i] = 0.1
		y[i] = 1e155
	}
	ws, stats, err := SlidingPCCDetail(x, y, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 0 {
		t.Errorf("constant pair produced windows: %v", ws)
	}
	if stats.Degenerate != stats.Windows || stats.Windows != 41 {
		t.Errorf("stats = %+v, want all 41 positions degenerate", stats)
	}
}

func TestSlidingPCCDetailMatchesSlidingPCC(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 300
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	for i := 100; i < 180; i++ {
		y[i] = x[i] + 0.1*rng.NormFloat64()
	}
	plain, err := SlidingPCC(x, y, 25, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	detail, stats, err := SlidingPCCDetail(x, y, 25, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(detail) {
		t.Fatalf("SlidingPCC and SlidingPCCDetail disagree: %v vs %v", plain, detail)
	}
	for i := range plain {
		if plain[i] != detail[i] {
			t.Errorf("window %d: %v vs %v", i, plain[i], detail[i])
		}
	}
	if stats.Degenerate != 0 {
		t.Errorf("non-degenerate data counted %d degenerate windows", stats.Degenerate)
	}
}

func TestSlidingPCCErrors(t *testing.T) {
	if _, err := SlidingPCC([]float64{1, 2}, []float64{1}, 2, 0.5); err == nil {
		t.Error("length mismatch must fail")
	}
	if _, err := SlidingPCC([]float64{1, 2}, []float64{1, 2}, 1, 0.5); err == nil {
		t.Error("size 1 must fail")
	}
	if _, err := SlidingPCC([]float64{1, 2}, []float64{1, 2}, 5, 0.5); err == nil {
		t.Error("oversize window must fail")
	}
}

// TestWindowMomentsRelease checks that Release drops the series and any
// moment slice above the retention bound, and that moments reset after a
// release score window pairs to the same bits.
func TestWindowMomentsRelease(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, y := make([]float64, 200), make([]float64, 200)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = x[i] + rng.NormFloat64()
	}
	var mx, my WindowMoments
	score := func() []float64 {
		if err := mx.Reset(x, 16); err != nil {
			t.Fatal(err)
		}
		if err := my.Reset(y, 16); err != nil {
			t.Fatal(err)
		}
		rs := make([]float64, len(x)-15)
		AbsR(rs, &mx, 0, &my, 0)
		return rs
	}
	want := score()
	mx.Release()
	if mx.v != nil || mx.mean == nil {
		t.Fatalf("Release kept the series or dropped a small moment slice")
	}
	got := score()
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("position %d: |r| %v after a release, %v before", i, got[i], want[i])
		}
	}
	long := make([]float64, freelist.MaxBytes/8+16)
	for i := range long {
		long[i] = rng.NormFloat64()
	}
	if err := mx.Reset(long, 16); err != nil {
		t.Fatal(err)
	}
	mx.Release()
	if mx.mean != nil || mx.ss != nil {
		t.Error("Release kept moment slices above the retention bound")
	}
}
