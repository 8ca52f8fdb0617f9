package core

import (
	"math/rand"
	"testing"

	"tycos/internal/series"
	"tycos/internal/window"
)

// testPair builds a pair of length n that is independent noise except for a
// strongly dependent segment [segStart, segEnd] where y[i+delay] = x[i] plus
// small noise.
func testPair(seed int64, n, segStart, segEnd, delay int) series.Pair {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	for i := segStart; i <= segEnd; i++ {
		x[i] = rng.NormFloat64() * 2
		y[i+delay] = x[i] + 0.05*rng.NormFloat64()
	}
	return series.MustPair(series.New("x", x), series.New("y", y))
}

func defaultOpts() Options {
	return Options{
		SMin:    10,
		SMax:    60,
		TDMax:   5,
		Sigma:   0.25,
		MaxIdle: 3,
		Seed:    1,
	}
}

func overlapsSegment(ws []window.Scored, segStart, segEnd int) bool {
	seg := window.Window{Start: segStart, End: segEnd}
	for _, w := range ws {
		if w.OverlapX(seg) > (segEnd-segStart)/3 {
			return true
		}
	}
	return false
}

func TestSearchFindsEmbeddedCorrelationAllVariants(t *testing.T) {
	p := testPair(3, 300, 120, 180, 0)
	for _, v := range []Variant{VariantL, VariantLN, VariantLM, VariantLMN} {
		opts := defaultOpts()
		opts.Variant = v
		res, err := Search(p, opts)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if len(res.Windows) == 0 {
			t.Errorf("%v: no windows found", v)
			continue
		}
		if !overlapsSegment(res.Windows, 120, 180) {
			t.Errorf("%v: windows %v miss the embedded segment [120,180]", v, res.Windows)
		}
		for _, w := range res.Windows {
			if w.MI < opts.Sigma {
				t.Errorf("%v: window %v below σ", v, w)
			}
			if !opts.constraints(p.Len()).Feasible(w.Window) {
				t.Errorf("%v: infeasible window %v", v, w)
			}
		}
	}
}

func TestSearchRecoversTimeDelay(t *testing.T) {
	// The driving signal inside the segment is autocorrelated (AR(1)), as
	// real phenomena are; partial alignments then carry partial MI, giving
	// the climb a gradient in the delay dimension. With an i.i.d. driver
	// there is no such gradient and no local search can find the delay.
	const trueDelay = 4
	rng := rand.New(rand.NewSource(7))
	n := 300
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	ar := 0.0
	for i := 100; i <= 180; i++ {
		ar = 0.9*ar + rng.NormFloat64()
		x[i] = ar
		y[i+trueDelay] = x[i] + 0.05*rng.NormFloat64()
	}
	p := series.MustPair(series.New("x", x), series.New("y", y))
	opts := defaultOpts()
	opts.MaxIdle = 5
	opts.Variant = VariantLMN
	res, err := Search(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, w := range res.Windows {
		if w.OverlapX(window.Window{Start: 100, End: 180}) > 25 && w.Delay >= trueDelay-2 && w.Delay <= trueDelay+2 {
			found = true
		}
	}
	if !found {
		t.Errorf("no window recovered delay ≈ %d: %v", trueDelay, res.Windows)
	}
}

func TestSearchDeterministicForSeed(t *testing.T) {
	p := testPair(11, 300, 100, 160, 2)
	opts := defaultOpts()
	opts.Variant = VariantLN
	a, err := Search(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Windows) != len(b.Windows) {
		t.Fatalf("non-deterministic window count: %d vs %d", len(a.Windows), len(b.Windows))
	}
	for i := range a.Windows {
		if a.Windows[i] != b.Windows[i] {
			t.Errorf("window %d differs: %v vs %v", i, a.Windows[i], b.Windows[i])
		}
	}
}

func TestSearchNoFalsePositivesOnIndependentData(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	n := 300
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	p := series.MustPair(series.New("x", x), series.New("y", y))
	opts := defaultOpts()
	opts.SMin = 20
	opts.Sigma = 0.45
	opts.Variant = VariantLMN
	res, err := Search(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) > 1 {
		t.Errorf("independent noise produced %d windows: %v", len(res.Windows), res.Windows)
	}
}

func TestSearchResultNonOverlapping(t *testing.T) {
	p := testPair(23, 450, 80, 150, 0)
	// Add a second correlated segment.
	rng := rand.New(rand.NewSource(29))
	for i := 280; i <= 360; i++ {
		p.X.Values[i] = rng.NormFloat64() * 2
		p.Y.Values[i] = -p.X.Values[i] + 0.05*rng.NormFloat64()
	}
	opts := defaultOpts()
	opts.Variant = VariantLMN
	res, err := Search(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(res.Windows); i++ {
		for j := i + 1; j < len(res.Windows); j++ {
			if res.Windows[i].OverlapX(res.Windows[j].Window) > 0 {
				t.Errorf("overlapping results: %v and %v", res.Windows[i], res.Windows[j])
			}
		}
	}
	if !overlapsSegment(res.Windows, 80, 150) || !overlapsSegment(res.Windows, 280, 360) {
		t.Errorf("missed a segment: %v", res.Windows)
	}
}

func TestBruteForceAgainstSearchSimilarity(t *testing.T) {
	p := testPair(31, 140, 50, 95, 0)
	opts := Options{SMin: 8, SMax: 40, TDMax: 2, Sigma: 0.3, MaxIdle: 3, Seed: 1}
	bf, err := BruteForce(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Windows) == 0 {
		t.Fatal("brute force found nothing")
	}
	if !overlapsSegment(bf.Windows, 50, 95) {
		t.Errorf("brute force missed segment: %v", bf.Windows)
	}
	opts.Variant = VariantLMN
	heur, err := Search(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	sim := window.SymmetricMatchRate(bf.Windows, heur.Windows)
	if sim < 50 {
		t.Errorf("match rate TYCOS vs BruteForce = %.1f%%, windows bf=%v heur=%v", sim, bf.Windows, heur.Windows)
	}
}

func TestSearchSpaceSizeReporting(t *testing.T) {
	opts := Options{SMin: 20, SMax: 400, TDMax: 20}
	got := SearchSpaceSize(9000, opts)
	// Eq. (4) counts 2·td_max delays per window; the exact enumeration also
	// counts τ = 0 but loses boundary windows, so the two agree within ~1%.
	const eq4 = 136870440
	if got < eq4*99/100 || got > eq4*101/100 {
		t.Errorf("search space = %d, want within 1%% of Eq.(4) = %d", got, eq4)
	}
}

func TestOptionsValidation(t *testing.T) {
	p := testPair(1, 100, 10, 40, 0)
	bad := []Options{
		{SMin: 0, SMax: 10, TDMax: 1, Sigma: 0.3},               // s_min too small
		{SMin: 20, SMax: 10, TDMax: 1, Sigma: 0.3},              // s_max < s_min
		{SMin: 8, SMax: 20, TDMax: -1, Sigma: 0.3},              // negative delay — caught by withDefaults? no: validate
		{SMin: 8, SMax: 20, TDMax: 1, Sigma: -0.1},              // negative sigma
		{SMin: 8, SMax: 20, TDMax: 1, Sigma: 0.3, Epsilon: 0.4}, // ε ≥ σ
		{SMin: 3, SMax: 20, TDMax: 1, Sigma: 0.3, K: 4},         // s_min ≤ k
	}
	for i, o := range bad {
		if _, err := Search(p, o); err == nil {
			t.Errorf("case %d should fail: %+v", i, o)
		}
		if _, err := BruteForce(p, o); err == nil {
			t.Errorf("brute case %d should fail: %+v", i, o)
		}
	}
}

func TestTopKFiltering(t *testing.T) {
	p := testPair(37, 450, 60, 130, 0)
	rng := rand.New(rand.NewSource(41))
	for i := 200; i <= 270; i++ {
		p.Y.Values[i] = p.X.Values[i]*0.8 + 0.3*rng.NormFloat64()
	}
	for i := 330; i <= 400; i++ {
		p.Y.Values[i] = -p.X.Values[i] + 0.05*rng.NormFloat64()
	}
	opts := defaultOpts()
	opts.Sigma = 0 // threshold comes from the top-K list
	opts.TopK = 2
	opts.Variant = VariantLMN
	res, err := Search(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) > 2 {
		t.Errorf("top-2 returned %d windows: %v", len(res.Windows), res.Windows)
	}
	if len(res.Windows) == 0 {
		t.Error("top-K returned nothing")
	}
}

func TestVariantStrings(t *testing.T) {
	names := map[Variant]string{
		VariantL: "TYCOS_L", VariantLN: "TYCOS_LN",
		VariantLM: "TYCOS_LM", VariantLMN: "TYCOS_LMN",
	}
	for v, want := range names {
		if v.String() != want {
			t.Errorf("%d.String() = %q", v, v.String())
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	// Every window exceeds the all-pairs bound, so LMN moves its estimators.
	p := testPair(43, 600, 150, 450, 0)
	opts := defaultOpts()
	opts.SMin, opts.SMax = 130, 300
	opts.Variant = VariantLMN
	res, err := Search(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.WindowsEvaluated == 0 {
		t.Error("no windows evaluated recorded")
	}
	if res.Stats.Restarts == 0 {
		t.Error("no restarts recorded")
	}
	if res.Stats.MIIncremental == 0 {
		t.Error("incremental variant recorded no incremental moves")
	}
	opts.Variant = VariantL
	res, err = Search(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MIIncremental != 0 {
		t.Error("batch variant recorded incremental moves")
	}
	if res.Stats.MIBatch == 0 {
		t.Error("batch variant recorded no batch estimations")
	}
}

func TestSearchAll(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	n := 250
	mk := func(name string) series.Series {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return series.New(name, v)
	}
	a := mk("a")
	b := mk("b")
	c := mk("c")
	// Couple only (a, c) so exactly one pair should fire.
	for i := 60; i < 140; i++ {
		c.Values[i] = a.Values[i] + 0.05*rng.NormFloat64()
	}
	opts := defaultOpts()
	opts.SMin = 16
	opts.Sigma = 0.4
	opts.Variant = VariantLMN
	results := SearchAll([]series.Series{a, b, c}, opts, 2)
	if len(results) != 3 {
		t.Fatalf("expected 3 pairs, got %d", len(results))
	}
	found := map[string]int{}
	for _, pr := range results {
		if pr.Err != nil {
			t.Fatalf("pair (%s,%s): %v", pr.XName, pr.YName, pr.Err)
		}
		found[pr.XName+"/"+pr.YName] = len(pr.Result.Windows)
	}
	if found["a/c"] == 0 {
		t.Errorf("coupled pair found no windows: %v", found)
	}
	if found["a/b"] > 1 || found["b/c"] > 1 {
		t.Errorf("uncoupled pairs over-fire: %v", found)
	}
	// Determinism across parallelism levels.
	seq := SearchAll([]series.Series{a, b, c}, opts, 1)
	for i := range results {
		if len(results[i].Result.Windows) != len(seq[i].Result.Windows) {
			t.Errorf("pair %d differs across parallelism", i)
		}
	}
	// Mismatched lengths produce a per-pair error, not a panic.
	short := series.New("short", make([]float64, 10))
	mixed := SearchAll([]series.Series{a, short}, opts, 0)
	if len(mixed) != 1 || mixed[0].Err == nil {
		t.Errorf("length mismatch not reported: %+v", mixed)
	}
	if SearchAll(nil, opts, 0) != nil {
		t.Error("no series must produce no results")
	}
}
