package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tycos/internal/mi"
	"tycos/internal/series"
	"tycos/internal/synth"
	"tycos/internal/window"
)

func scorerPair(seed int64, n int) series.Pair {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	y := make([]float64, n)
	ar := 0.0
	for i := range x {
		ar = 0.8*ar + rng.NormFloat64()
		x[i] = ar
		y[i] = 0.6*ar + 0.5*rng.NormFloat64()
	}
	return series.MustPair(series.New("x", x), series.New("y", y))
}

func TestBatchAndIncrementalScorersAgree(t *testing.T) {
	p := scorerPair(3, 400)
	batch := newBatchScorer(p, 4, mi.NormMaxEntropy)
	inc := newIncScorer(p, 4, mi.NormMaxEntropy)
	windows := []window.Window{
		{Start: 10, End: 60, Delay: 0},
		{Start: 12, End: 66, Delay: 0}, // same-delay diff
		{Start: 12, End: 66, Delay: 3}, // delay change
		{Start: 15, End: 70, Delay: 3}, // diff at new delay
		{Start: 12, End: 66, Delay: 0}, // back to cached delay 0
		{Start: 200, End: 320, Delay: -5},
	}
	for _, w := range windows {
		rb, nb, errB := batch.both(w)
		ri, ni, errI := inc.both(w)
		if (errB == nil) != (errI == nil) {
			t.Fatalf("%v: error mismatch %v vs %v", w, errB, errI)
		}
		if errB != nil {
			continue
		}
		if !sameBits(rb, ri) || !sameBits(nb, ni) {
			t.Errorf("%v: batch (%.17g, %.17g) != incremental (%.17g, %.17g)", w, rb, nb, ri, ni)
		}
	}
	nBatch, nInc := inc.stats()
	if nInc == 0 {
		t.Error("incremental scorer performed no incremental moves")
	}
	if nBatch == 0 {
		t.Error("incremental scorer performed no rebuilds")
	}
}

func TestIncScorerLRUEviction(t *testing.T) {
	p := scorerPair(5, 300)
	inc := newIncScorer(p, 4, mi.NormMaxEntropy)
	// Touch more delays than the cache holds.
	for d := -5; d <= 5; d++ {
		if _, _, err := inc.both(window.Window{Start: 50, End: 100, Delay: d}); err != nil {
			t.Fatal(err)
		}
	}
	if len(inc.states) > maxIncStates {
		t.Errorf("cache grew to %d > %d", len(inc.states), maxIncStates)
	}
	// Evicted delays still score correctly (through a rebuild).
	_, b, _ := newBatchScorer(p, 4, mi.NormMaxEntropy).both(window.Window{Start: 50, End: 100, Delay: -5})
	_, i, err := inc.both(window.Window{Start: 50, End: 100, Delay: -5})
	if err != nil || !sameBits(b, i) {
		t.Errorf("evicted delay rescores wrong: %v vs %v (%v)", b, i, err)
	}
}

func TestNullModelInterpolation(t *testing.T) {
	nm := &nullModel{sizes: []int{10, 40, 160}, levels: []float64{0.8, 0.4, 0.1}}
	if nm.at(5) != 0.8 || nm.at(10) != 0.8 {
		t.Error("clamp below first size failed")
	}
	if nm.at(160) != 0.1 || nm.at(1000) != 0.1 {
		t.Error("clamp above last size failed")
	}
	mid := nm.at(20) // log-midpoint of [10,40]
	if mid <= 0.4 || mid >= 0.8 {
		t.Errorf("interpolated level %v out of (0.4, 0.8)", mid)
	}
	if nm.at(40) != 0.4 {
		t.Errorf("exact grid point = %v", nm.at(40))
	}
	var nilModel *nullModel
	if nilModel.at(50) != 0 {
		t.Error("nil model must be zero")
	}
}

func TestBuildNullModelDecreasesWithSize(t *testing.T) {
	p := scorerPair(7, 600)
	opts := Options{SMin: 10, SMax: 160, TDMax: 4, Sigma: 0.3, SignificanceLevel: 2}.withDefaults()
	nm := buildNullModel(p, opts, rand.New(rand.NewSource(1)))
	if len(nm.sizes) < 3 {
		t.Fatalf("too few calibration sizes: %v", nm.sizes)
	}
	// KSG algorithm 2 is near-unbiased on independent data, so null levels
	// sit close to zero — sometimes slightly below, since boundary effects
	// at tiny m can push the estimate negative. What shrinks with sample
	// count is the MAGNITUDE of the spurious level, not necessarily a
	// positive bias.
	first, last := nm.levels[0], nm.levels[len(nm.levels)-1]
	if math.Abs(last) >= math.Abs(first) {
		t.Errorf("null level magnitude did not shrink: %v → %v (%v)", first, last, nm.levels)
	}
	for _, l := range nm.levels {
		if l < -1 || l > 1 {
			t.Errorf("implausible null level %v", l)
		}
	}
}

func TestJitterPair(t *testing.T) {
	p := scorerPair(9, 200)
	same := jitterPair(p, 0, 1)
	if &same.X.Values[0] != &p.X.Values[0] {
		t.Error("zero jitter must return the pair unchanged")
	}
	j1 := jitterPair(p, 0.01, 1)
	j2 := jitterPair(p, 0.01, 1)
	moved := false
	for i := range p.X.Values {
		if j1.X.Values[i] != j2.X.Values[i] {
			t.Fatal("jitter must be deterministic for equal seeds")
		}
		if j1.X.Values[i] != p.X.Values[i] {
			moved = true
		}
		// Amplitude bounded by jitter·std (std ≈ 1.6 here).
		if math.Abs(j1.X.Values[i]-p.X.Values[i]) > 0.05 {
			t.Fatalf("jitter too large at %d: %v vs %v", i, j1.X.Values[i], p.X.Values[i])
		}
	}
	if !moved {
		t.Error("jitter changed nothing")
	}
	// Constant series still get dithered (absolute fallback scale).
	c := series.MustPair(series.New("cx", make([]float64, 50)), series.New("cy", make([]float64, 50)))
	jc := jitterPair(c, 0.01, 2)
	if jc.X.Values[0] == 0 && jc.X.Values[1] == 0 {
		t.Error("constant series not dithered")
	}
}

func TestNoiseVerdictOnKnownStructure(t *testing.T) {
	// A pair correlated on [0,99] and independent on [100,199]: the forward
	// partition after the correlated anchor must be judged noise; a
	// partition inside the correlated region must not.
	rng := rand.New(rand.NewSource(11))
	n := 200
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		if i < 100 {
			y[i] = x[i] + 0.1*rng.NormFloat64()
		} else {
			y[i] = rng.NormFloat64()
		}
	}
	p := series.MustPair(series.New("x", x), series.New("y", y))
	opts := Options{SMin: 16, SMax: 150, TDMax: 2, Sigma: 0.3}.withDefaults()
	s := &searcher{pair: p, opts: opts, cons: opts.constraints(n)}
	s.scorer = newBatchScorer(p, opts.K, mi.NormMaxEntropy)

	anchor := window.Window{Start: 40, End: 99, Delay: 0}
	anchorRaw, _, err := s.scorer.both(anchor)
	if err != nil {
		t.Fatal(err)
	}
	noisePart := window.Window{Start: 100, End: 115, Delay: 0}
	if !s.noiseVerdict(anchor, anchorRaw, noisePart, true) {
		t.Error("independent continuation should be judged noise")
	}
	inner := window.Window{Start: 40, End: 79, Delay: 0}
	innerRaw, _, err := s.scorer.both(inner)
	if err != nil {
		t.Fatal(err)
	}
	goodPart := window.Window{Start: 80, End: 99, Delay: 0}
	if s.noiseVerdict(inner, innerRaw, goodPart, true) {
		t.Error("correlated continuation should not be judged noise")
	}
}

// recorder is a scorer that records the windows reaching it, and the
// neighbourhoods the climb announced to it.
type recorder struct {
	scorer
	seq   []window.Window
	plans []recordedPlan
}

// recordedPlan is one plan call: the windows that were to reach the scorer,
// announced before seq[at].
type recordedPlan struct {
	at    int
	reach []window.Window
}

func (r *recorder) both(w window.Window) (float64, float64, error) {
	r.seq = append(r.seq, w)
	return r.scorer.both(w)
}

func (r *recorder) plan(nbs []window.Window, skip uint32) {
	var reach []window.Window
	for i, w := range nbs {
		if skip&(1<<i) == 0 {
			reach = append(reach, w)
		}
	}
	r.plans = append(r.plans, recordedPlan{at: len(r.seq), reach: reach})
	r.scorer.plan(nbs, skip)
}

// climbSequence records the windows an LMN search's climbs send to the
// scorer, past the score memo, and the neighbourhoods announced before
// them, on a pair shaped like perfsuite's pair-LMN inputs (n = 3000, AR(1)
// with three planted segments of 250 samples) when window sizes are held to
// m ± 4 and the estimator uses k neighbours.
func climbSequence(m, k int) (series.Pair, *recorder) {
	c, err := synth.CorrelatedAR(3000, 3, 250, 4, int64(m))
	if err != nil {
		panic(err)
	}
	opts := Options{SMin: m - 4, SMax: m + 4, TDMax: 10, Sigma: 0.3, K: k, Normalization: mi.NormMaxEntropy, Variant: VariantLMN}.withDefaults()
	rec := &recorder{scorer: newBatchScorer(c.Pair, opts.K, opts.Normalization)}
	s := &searcher{
		pair: c.Pair, opts: opts, cons: opts.constraints(c.Pair.Len()), scorer: rec,
		ctx: context.Background(), seg: segment{limit: c.Pair.Len() - opts.SMin + 1}, memo: new(scoreMemo),
	}
	s.run()
	return c.Pair, rec
}

// BenchmarkRouteCrossover prices the paths incScorer can take for a window
// of about m samples (AR(1) data, k = 2, 4 and 8): a batch estimate from
// scratch; a batch estimate with the τ-planes of each announced
// neighbourhood ("planned", how a routed window is estimated); or a move
// of the cached estimator of the window's delay, with a reload when the
// move is a jump. It replays climbSequence and reports ns/eval, the cost
// per scored window. The smallWindow comment records these costs next to
// the end-to-end measurement that set the threshold.
func BenchmarkRouteCrossover(b *testing.B) {
	for _, k := range []int{2, 4, 8} {
		for _, m := range []int{16, 24, 32, 48, 64} {
			p, rec := climbSequence(m, k)
			seq := rec.seq
			perEval := func(b *testing.B) {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(seq)), "ns/eval")
			}
			batch := func(planes []tauPlane) func(b *testing.B) {
				return func(b *testing.B) {
					sc := newBatchScorer(p, k, mi.NormMaxEntropy)
					sc.planes = planes
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						next := 0
						for j, w := range seq {
							for ; next < len(rec.plans) && rec.plans[next].at == j; next++ {
								sc.plan(rec.plans[next].reach, 0)
							}
							if _, _, err := sc.both(w); err != nil {
								b.Fatal(err)
							}
						}
					}
					perEval(b)
				}
			}
			b.Run(fmt.Sprintf("k=%d/m=%d/batch", k, m), batch(nil))
			b.Run(fmt.Sprintf("k=%d/m=%d/planned", k, m), batch(new(segScratch).planes[:]))
			b.Run(fmt.Sprintf("k=%d/m=%d/incremental", k, m), func(b *testing.B) {
				sc := newIncScorer(p, k, mi.NormMaxEntropy)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, w := range seq {
						st, err := sc.moveTo(w)
						if err != nil {
							b.Fatal(err)
						}
						if _, err := st.inc.MI(); err != nil {
							b.Fatal(err)
						}
					}
				}
				perEval(b)
			})
		}
	}
}
