package core

import (
	"context"
	"math/rand"

	"tycos/internal/series"
	"tycos/internal/window"
)

// BruteForce enumerates every feasible window (the O(n³) search space of
// Lemma 1), scores each with the configured estimator (the O(m log m) kNN
// cost of Lemma 2), and returns all windows whose score meets σ, aggregated
// into maximal non-overlapping windows the way the paper post-processes the
// Brute Force output for the accuracy evaluation ("the generated windows are
// aggregated and the overlapped windows are combined together").
//
// It is exact and therefore exponentially slower than Search; use it only on
// small inputs (the paper's 9,000-sample example takes >12 hours in C++).
func BruteForce(p series.Pair, opts Options) (Result, error) {
	return BruteForceContext(context.Background(), p, opts)
}

// BruteForceContext is BruteForce with cooperative cancellation — essential
// for an enumeration whose uninterrupted running time is measured in hours.
// The stop conditions (context cancellation or deadline,
// Options.MaxEvaluations) are checked once per evaluated window; on a stop the
// windows aggregated so far are returned with Result.Partial set and
// Stats.StopReason recording the cause, mirroring SearchContext's contract.
func BruteForceContext(ctx context.Context, p series.Pair, opts Options) (Result, error) {
	if err := opts.Validate(p.Len()); err != nil {
		return Result{}, err
	}
	opts = opts.withDefaults()
	p = jitterPair(p, opts.Jitter, opts.Seed)
	s := &searcher{
		pair: p,
		opts: opts,
		cons: opts.constraints(p.Len()),
		ctx:  ctx,
	}
	sc := newBatchScorer(p, opts.K, opts.Normalization)
	if opts.SignificanceLevel > 0 {
		// The offset matches search.go so both engines calibrate on the same
		// null distribution and the differential tests stay byte-identical.
		//lint:allow seedflow fixed pre-idiom domain offset; committed goldens and EXPERIMENTS results pin this stream
		sc.null = buildNullModel(p, opts, rand.New(rand.NewSource(opts.Seed+0x5eed)))
	}
	s.scorer = &sc

	var hits []window.Scored
	n := p.Len()
scan:
	for start := 0; start+opts.SMin-1 < n; start++ {
		// min(SMax, n) keeps start+SMax from overflowing for a huge SMax.
		maxEnd := min(start+min(opts.SMax, n)-1, n-1)
		for end := start + opts.SMin - 1; end <= maxEnd; end++ {
			for tau := -opts.TDMax; tau <= opts.TDMax; tau++ {
				// Per-window stop check: each evaluation is an O(m log m)
				// kNN pass, so the check is cheap relative to the work it
				// bounds, and a budget stop lands on a deterministic window.
				if s.checkStop() {
					break scan
				}
				w := window.Window{Start: start, End: end, Delay: tau}
				if !s.cons.Feasible(w) {
					continue
				}
				sc, err := s.scorer.finalScore(w)
				if err != nil {
					continue
				}
				s.stats.WindowsEvaluated++
				if sc >= opts.Sigma {
					hits = append(hits, window.Scored{Window: w, MI: sc})
				}
			}
		}
	}
	merged := window.MergeOverlapping(hits)
	s.stats.MIBatch, s.stats.MIIncremental = s.scorer.stats()
	if s.stop == "" {
		s.stop = StopCompleted
	}
	s.stats.StopReason = s.stop
	return Result{Windows: merged, Stats: s.stats, Partial: s.stop != StopCompleted}, nil
}

// SearchSpaceSize reports the exact number of feasible windows for the
// options over a series of length n (Lemma 1).
func SearchSpaceSize(n int, opts Options) int64 {
	opts = opts.withDefaults()
	return opts.constraints(n).SearchSpaceSize()
}
