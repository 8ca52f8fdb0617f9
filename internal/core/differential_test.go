package core

import (
	"math"
	"math/rand"
	"testing"

	"tycos/internal/mi"
	"tycos/internal/series"
	"tycos/internal/window"
)

// Differential suite: the incremental scorer — IR/IMR update cascade, per-
// delay estimator cache, range diffing, rebuild heuristics — must agree with
// a from-scratch batch KSG recomputation to the last bit on every window of
// any move sequence a climb can produce. Sequences are randomized but
// seeded; a failing sequence is shrunk to the minimal failing suffix before
// reporting, so a regression prints a small reproducible trace instead of
// 60 windows.

// sameBits reports whether two scores are bit-identical, the agreement the
// suite demands: both scorers fold the same digamma terms in the same
// (ascending X index) order.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// moveKind labels the four LAHC move types the climb generates.
type moveKind int

const (
	moveGrow moveKind = iota
	moveShrink
	moveShift
	moveDelay
	numMoveKinds
)

func (m moveKind) String() string {
	return [...]string{"grow", "shrink", "shift", "delay-change"}[m]
}

// randomMove perturbs w with one feasible move of the given kind, or returns
// false when no feasible perturbation of that kind exists.
func randomMove(rng *rand.Rand, w window.Window, kind moveKind, cons window.Constraints) (window.Window, bool) {
	amt := 1 + rng.Intn(4)
	cands := make([]window.Window, 0, 4)
	switch kind {
	case moveGrow:
		cands = append(cands,
			window.Window{Start: w.Start - amt, End: w.End, Delay: w.Delay},
			window.Window{Start: w.Start, End: w.End + amt, Delay: w.Delay})
	case moveShrink:
		cands = append(cands,
			window.Window{Start: w.Start + amt, End: w.End, Delay: w.Delay},
			window.Window{Start: w.Start, End: w.End - amt, Delay: w.Delay})
	case moveShift:
		cands = append(cands,
			window.Window{Start: w.Start - amt, End: w.End - amt, Delay: w.Delay},
			window.Window{Start: w.Start + amt, End: w.End + amt, Delay: w.Delay})
	case moveDelay:
		d := 1 + rng.Intn(2)
		cands = append(cands,
			window.Window{Start: w.Start, End: w.End, Delay: w.Delay - d},
			window.Window{Start: w.Start, End: w.End, Delay: w.Delay + d})
	}
	// Try the candidates in random order; first feasible wins.
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	for _, c := range cands {
		if c != w && cons.Feasible(c) {
			return c, true
		}
	}
	return w, false
}

// genMoveSequence builds a random feasible window trajectory of the given
// length, mixing all four move kinds.
func genMoveSequence(rng *rand.Rand, cons window.Constraints, length int) []window.Window {
	start := rng.Intn(cons.N - cons.SMin)
	w := window.Window{Start: start, End: start + cons.SMin - 1, Delay: 0}
	if !cons.Feasible(w) {
		w = window.Window{Start: 0, End: cons.SMin - 1, Delay: 0}
	}
	seq := []window.Window{w}
	for len(seq) < length {
		next, ok := randomMove(rng, w, moveKind(rng.Intn(int(numMoveKinds))), cons)
		if !ok {
			continue
		}
		w = next
		seq = append(seq, w)
	}
	return seq
}

// batchReference computes the from-scratch KSG raw estimate for w — the
// ground truth the incremental path must reproduce.
func batchReference(t *testing.T, p series.Pair, k int, w window.Window) (float64, bool) {
	t.Helper()
	xs, ys, err := p.DelaySlice(w.Start, w.End, w.Delay)
	if err != nil {
		t.Fatalf("reference slice for %+v: %v", w, err)
	}
	raw, err := mi.NewKSG(k, mi.BackendKDTree).Estimate(xs, ys)
	if err != nil {
		return 0, false
	}
	return raw, true
}

// unrouted returns the raw MI of w from the incremental estimator of its
// delay, moved or rebuilt to w whatever the window's size: the path
// incScorer takes for windows the all-pairs kernel does not serve. Replaying
// a trajectory through it keeps the windows the kernel serves exercising the
// estimator moves they would make without the route.
func unrouted(sc *incScorer, w window.Window) (float64, error) {
	st, err := sc.moveTo(w)
	if err != nil {
		return 0, err
	}
	return st.inc.MI()
}

// replaySequence plays the windows through two fresh incremental scorers,
// one on the incremental path for every window (unrouted) and one through
// both, which routes the windows the all-pairs kernel serves to batch. It
// returns the index of the first window where either raw MI differs from
// the batch reference (-1 when none does).
func replaySequence(t *testing.T, p series.Pair, opts Options, seq []window.Window) (failIdx int, got, want float64) {
	t.Helper()
	direct := newIncScorer(p, opts.K, opts.Normalization)
	routed := newIncScorer(p, opts.K, opts.Normalization)
	for i, w := range seq {
		wantRaw, ok := batchReference(t, p, opts.K, w)
		directRaw, directErr := unrouted(&direct, w)
		routedRaw, _, routedErr := routed.both(w)
		for _, r := range []struct {
			path string
			raw  float64
			err  error
		}{{"incremental", directRaw, directErr}, {"routed", routedRaw, routedErr}} {
			if r.err != nil {
				if ok {
					t.Fatalf("window %d (%+v): %s path errored (%v) where batch succeeded", i, w, r.path, r.err)
				}
				continue
			}
			if !ok {
				t.Fatalf("window %d (%+v): batch errored where the %s path succeeded", i, w, r.path)
			}
			if !sameBits(r.raw, wantRaw) {
				return i, r.raw, wantRaw
			}
		}
	}
	return -1, 0, 0
}

// shrinkSequence minimises a failing sequence: it drops windows from the
// front as long as the shortened replay still fails, returning the minimal
// failing suffix (the estimator state that provokes the divergence is built
// by the retained prefix, so suffixes preserve failures far more often than
// arbitrary subsequences).
func shrinkSequence(t *testing.T, p series.Pair, opts Options, seq []window.Window, failIdx int) []window.Window {
	t.Helper()
	minimal := seq[:failIdx+1]
	for from := 1; from <= failIdx; from++ {
		cand := seq[from : failIdx+1]
		if idx, _, _ := replaySequence(t, p, opts, cand); idx >= 0 {
			minimal = cand[:idx+1]
			failIdx = from + idx
		}
	}
	return minimal
}

// TestIncrementalScorerMatchesBatchOnRandomTrajectories is the property test:
// bit-for-bit agreement between the incremental scorer and batch KSG
// recomputation over seeded random grow/shrink/shift/delay-change sequences,
// on the incremental path for every window and through the size route.
func TestIncrementalScorerMatchesBatchOnRandomTrajectories(t *testing.T) {
	p := testPair(7, 400, 120, 220, 2)
	opts := Options{SMin: 10, SMax: 60, TDMax: 5, K: mi.DefaultK, Normalization: mi.NormMaxEntropy}
	length := 60
	trials := 20
	if testing.Short() {
		trials = 6
	}
	cons := opts.constraints(p.Len())
	for trial := 0; trial < trials; trial++ {
		seed := int64(1000 + trial)
		rng := rand.New(rand.NewSource(seed))
		seq := genMoveSequence(rng, cons, length)
		failIdx, got, want := replaySequence(t, p, opts, seq)
		if failIdx < 0 {
			continue
		}
		minimal := shrinkSequence(t, p, opts, seq, failIdx)
		t.Errorf("seed %d: incremental diverged from batch by %g (got %.17g, want %.17g)\nminimal failing sequence (%d windows):",
			seed, math.Abs(got-want), got, want, len(minimal))
		for i, w := range minimal {
			t.Errorf("  %2d: %+v", i, w)
		}
		return // one shrunk counterexample is enough output
	}
}

// TestIncrementalScorerMatchesBatchPerMoveKind isolates each move kind: long
// single-kind runs stress the corresponding IR/IMR update paths (grow →
// inserts, shrink → removes, shift → mixed, delay-change → cache/rebuild).
// The runs stay below the all-pairs bound (SMax 60), so replaySequence's
// unrouted replay is what keeps every move on those paths.
func TestIncrementalScorerMatchesBatchPerMoveKind(t *testing.T) {
	p := testPair(8, 400, 100, 200, 1)
	opts := Options{SMin: 10, SMax: 60, TDMax: 5, K: mi.DefaultK, Normalization: mi.NormMaxEntropy}
	cons := opts.constraints(p.Len())
	for kind := moveKind(0); kind < numMoveKinds; kind++ {
		rng := rand.New(rand.NewSource(int64(50 + kind)))
		w := window.Window{Start: 150, End: 150 + opts.SMin - 1, Delay: 0}
		seq := []window.Window{w}
		for len(seq) < 40 {
			next, ok := randomMove(rng, w, kind, cons)
			if !ok {
				// Single-kind walks hit constraint walls (e.g. pure grow
				// reaches SMax); bounce with a shift to keep going.
				next, ok = randomMove(rng, w, moveShift, cons)
				if !ok {
					break
				}
			}
			w = next
			seq = append(seq, w)
		}
		if failIdx, got, want := replaySequence(t, p, opts, seq); failIdx >= 0 {
			t.Errorf("%v: window %d (%+v) diverged: got %.12f, want %.12f", kind, failIdx, seq[failIdx], got, want)
		}
	}

	// One more input crosses the all-pairs bound both ways, three times:
	// growing past it, shrinking back under it, then switching delay while
	// small. Each crossing upward meets an estimator that the routed windows
	// left behind, positioned several moves back or at another delay. Its
	// windows walk right by about 125 samples a round, so it takes a longer
	// pair.
	p = testPair(8, 800, 100, 200, 1)
	w := window.Window{Start: 150, End: 150 + opts.SMin - 1, Delay: 0}
	seq := []window.Window{w}
	for round := 0; round < 3; round++ {
		for mi.KernelServes(w.Size() - 8) {
			w.End += 3
			seq = append(seq, w)
		}
		for w.Size() > opts.SMin+2 {
			w.Start += 3
			seq = append(seq, w)
		}
		w.Delay = 1 - w.Delay
		seq = append(seq, w)
	}
	if failIdx, got, want := replaySequence(t, p, opts, seq); failIdx >= 0 {
		t.Errorf("threshold crossing: window %d (%+v) diverged: got %.12f, want %.12f", failIdx, seq[failIdx], got, want)
	}
	sc := newIncScorer(p, opts.K, opts.Normalization)
	for _, w := range seq {
		if _, _, err := sc.both(w); err != nil {
			t.Fatalf("threshold crossing: %+v: %v", w, err)
		}
	}
	if _, nInc := sc.stats(); nInc == 0 || sc.small.nBatch == 0 {
		t.Errorf("threshold crossing took one path only: %d incremental moves, %d batch estimates", nInc, sc.small.nBatch)
	}
}

// TestIncrementalScorerNormalizedAgreement extends the property to the
// normalized score — what the climb actually thresholds — across all three
// normalizations, on the incremental path for every window and through the
// size route.
func TestIncrementalScorerNormalizedAgreement(t *testing.T) {
	p := testPair(9, 300, 80, 160, 0)
	for _, norm := range []mi.Normalization{mi.NormNone, mi.NormMaxEntropy, mi.NormJointHistogram} {
		opts := Options{SMin: 10, SMax: 60, TDMax: 5, K: mi.DefaultK, Normalization: norm}
		cons := opts.constraints(p.Len())
		rng := rand.New(rand.NewSource(99))
		seq := genMoveSequence(rng, cons, 40)
		direct := newIncScorer(p, opts.K, norm)
		routed := newIncScorer(p, opts.K, norm)
		batchSc := newBatchScorer(p, opts.K, norm)
		for i, w := range seq {
			_, wantNorm, wantErr := batchSc.both(w)
			directRaw, directErr := unrouted(&direct, w)
			_, routedNorm, routedErr := routed.both(w)
			for _, r := range []struct {
				path string
				norm float64
				err  error
			}{{"incremental", direct.normalize(directRaw, w), directErr}, {"routed", routedNorm, routedErr}} {
				if (r.err == nil) != (wantErr == nil) {
					t.Fatalf("norm %v window %d (%+v): error mismatch: %s=%v batch=%v", norm, i, w, r.path, r.err, wantErr)
				}
				if r.err != nil {
					continue
				}
				if !sameBits(r.norm, wantNorm) {
					t.Errorf("norm %v window %d (%+v): %s normalized score diverged: got %.17g, want %.17g", norm, i, w, r.path, r.norm, wantNorm)
				}
			}
		}
	}
}
