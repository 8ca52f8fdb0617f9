package core

import (
	"tycos/internal/obs"
	"tycos/internal/window"
)

// The noise theory (Section 6, Theorem 6.1): mixing a window with data that
// is independent of the dependence structure can only dilute the mutual
// information, I(Z;W) = θη·I(X;Y) ≤ I(X;Y). Definition 6.4 operationalises
// it: a following window w' is noise w.r.t. a followed window w iff
//
//	Ĩ(w') < ε   and   I_raw(w ⊙ w') < I_raw(w).
//
// The ε clause is evaluated on the same normalized scale as σ; the
// concatenation clause must use RAW MI — normalized scores shrink with
// window size by construction, which would brand every extension as noise.

// noiseVerdict evaluates Definition 6.4 for concatenating the partition
// after (forward=true) or before (forward=false) the anchor window.
func (s *searcher) noiseVerdict(anchor window.Window, anchorRaw float64, partition window.Window, forward bool) bool {
	_, partNorm, err := s.both(partition)
	if err != nil {
		partNorm = 0 // below the KSG sample minimum: no measurable information
	} else {
		s.stats.WindowsEvaluated++
	}
	if partNorm >= s.opts.Epsilon {
		return false
	}
	var concat window.Window
	if forward {
		concat, err = anchor.Concat(partition)
	} else {
		concat, err = partition.Concat(anchor)
	}
	if err != nil || !s.cons.Feasible(concat) {
		return false
	}
	concatRaw, _, err := s.both(concat)
	if err != nil {
		return false
	}
	s.stats.WindowsEvaluated++
	return concatRaw < anchorRaw
}

// partitionLen sizes the data partition the noise test scores: at least
// s_min so the KSG estimate is meaningful (a δ-sized sliver cannot be
// estimated and would reduce the test to a coin flip on estimator noise).
func (s *searcher) partitionLen() int {
	p := s.opts.Delta
	if p < s.opts.SMin {
		p = s.opts.SMin
	}
	return p
}

// prunedDirections implements Section 6.2.2: for the current window w, test
// whether the partitions that forward-end and backward-start exploration
// would concatenate are noise; pruned directions are skipped when generating
// neighbourhoods until the search moves.
func (s *searcher) prunedDirections(w window.Window) pruneFlags {
	var pruned pruneFlags
	rawW, _, err := s.both(w)
	if err != nil {
		return pruned
	}
	s.stats.WindowsEvaluated++
	p := s.partitionLen()
	fwd := window.Window{Start: w.End + 1, End: w.End + p, Delay: w.Delay}
	if s.cons.Feasible(window.Window{Start: w.Start, End: w.End + p, Delay: w.Delay}) &&
		s.noiseVerdict(w, rawW, fwd, true) {
		pruned.endForward = true
		s.stats.PrunedDirections++
		emit(s, obs.DirectionPruned{Pair: s.pairName, Window: obsWindow(w), Direction: "end-forward"})
	}
	back := window.Window{Start: w.Start - p, End: w.Start - 1, Delay: w.Delay}
	if s.cons.Feasible(window.Window{Start: w.Start - p, End: w.End, Delay: w.Delay}) &&
		s.noiseVerdict(w, rawW, back, false) {
		pruned.startBackward = true
		s.stats.PrunedDirections++
		emit(s, obs.DirectionPruned{Pair: s.pairName, Window: obsWindow(w), Direction: "start-backward"})
	}
	return pruned
}

// initialNoisePruning implements Section 6.2.1 (Fig. 7): starting at from,
// the pair is cut into consecutive s_min blocks at τ = 0, which are combined
// hierarchically until a window whose normalized score reaches ε emerges.
// Blocks identified as noise (raw-MI dilution, Theorem 6.1) are discarded
// together with the accumulation they poisoned. It returns the chosen
// initial window and true, or false when no block fits in the remainder.
func (s *searcher) initialNoisePruning(from int) (window.Window, bool) {
	blockAt := func(start int) (window.Window, bool) {
		w := window.Window{Start: start, End: start + s.opts.SMin - 1, Delay: 0}
		return w, s.cons.Feasible(w)
	}
	cur, ok := blockAt(from)
	if !ok {
		return window.Window{}, false
	}
	curRaw, curNorm, err := s.both(cur)
	if err != nil {
		curRaw, curNorm = 0, 0
	} else {
		s.stats.WindowsEvaluated++
	}
	// The scan is bounded: if no examined window reaches ε within
	// maxInitialBlocks blocks, the best one seen anchors the climb anyway.
	// An unbounded scan would let a long stretch of τ=0-quiet data swallow
	// the whole remainder in one restart and hide any correlations that are
	// only visible at non-zero delays.
	best, bestNorm := cur, curNorm
	for blocks := 0; blocks < maxInitialBlocks; blocks++ {
		if curNorm >= s.opts.Epsilon {
			return cur, true
		}
		if curNorm > bestNorm {
			best, bestNorm = cur, curNorm
		}
		next, ok := blockAt(cur.End + 1)
		if !ok {
			// No further blocks: start from the best we have.
			return best, true
		}
		nextRaw, nextNorm, err := s.both(next)
		if err != nil {
			nextRaw, nextNorm = 0, 0
		} else {
			s.stats.WindowsEvaluated++
		}
		concat, cerr := cur.Concat(next)
		if cerr != nil || !s.cons.Feasible(concat) {
			// Concatenation infeasible (size cap reached): restart from next.
			cur, curRaw, curNorm = next, nextRaw, nextNorm
			continue
		}
		concatRaw, concatNorm, err := s.both(concat)
		if err != nil {
			cur, curRaw, curNorm = next, nextRaw, nextNorm
			continue
		}
		s.stats.WindowsEvaluated++
		if concatRaw < curRaw && nextNorm < s.opts.Epsilon {
			// next is noise w.r.t. cur (Theorem 6.1): drop both the
			// poisoned accumulation and restart from next (Fig. 7, steps
			// 3.3–4).
			s.stats.NoiseBlocks++
			emit(s, obs.NoiseBlockSkipped{Pair: s.pairName, Block: obsWindow(next)})
			cur, curRaw, curNorm = next, nextRaw, nextNorm
			continue
		}
		// Keep the best of the three by normalized score (Fig. 7, step 2),
		// with a progress guarantee: a stuck accumulation moves on to next.
		switch {
		case concatNorm >= curNorm && concatNorm >= nextNorm:
			cur, curRaw, curNorm = concat, concatRaw, concatNorm
		case nextNorm >= curNorm:
			cur, curRaw, curNorm = next, nextRaw, nextNorm
		default:
			cur, curRaw, curNorm = next, nextRaw, nextNorm
		}
	}
	if bestNorm > curNorm {
		return best, true
	}
	return cur, true
}

// maxInitialBlocks bounds the §6.2.1 hierarchical scan per restart.
const maxInitialBlocks = 8
