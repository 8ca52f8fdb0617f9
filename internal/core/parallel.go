package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"tycos/internal/faultinject"
	"tycos/internal/obs"
	"tycos/internal/series"
	"tycos/internal/window"
)

// In-pair parallelism: the restart/climb loop — where a search spends nearly
// all of its time — is decomposed into restart segments that concurrent
// workers can process independently and a deterministic merge recombines.
//
// The decomposition must not introduce schedule dependence anywhere, or the
// budget/cancellation contract (and reproducibility itself) falls apart. Four
// rules keep it out:
//
//  1. The segment plan is a pure function of (series length, Options): fixed
//     spans of scan positions, independent of the worker count.
//  2. Every worker owns all of its mutable state — scorer, incremental-MI
//     estimators, k-NN structures, stats, event buffer. The only shared
//     inputs (the jittered pair, the constraints, the calibrated null model)
//     are read-only after construction.
//  3. Each restart's LAHC acceptor is seeded from a per-(segment, restart)
//     split of the root seed, never from a shared stream.
//  4. Workers never publish results; the coordinator merges segment outputs
//     in segment order (not completion order) through the result-set
//     semantics, renumbering restart indices as it goes.
//
// Under these rules RestartWorkers: 1 and RestartWorkers: N produce
// byte-identical windows, stats and event streams for the same seed.

// segment is one contiguous slice of restart scan positions: chained LAHC
// restarts begin at positions in [from, limit). Climbs may grow their windows
// past limit — only the restart *start* positions are bounded — so
// correlations straddling a segment boundary are still reachable, and the
// overlap-resolving merge deduplicates whatever two adjacent segments both
// find.
type segment struct {
	index int
	from  int
	limit int
}

// segmentSpanFactor sizes restart segments as a multiple of SMax. Spans must
// be a pure function of the options (rule 1 above): smaller spans expose more
// parallelism but duplicate more boundary work, since a segment rescans up to
// one window length that its predecessor's final climb may already cover.
const segmentSpanFactor = 4

// planSegments cuts the feasible scan positions [0, n−SMin] into fixed-span
// segments. The plan depends only on n and the options — never on the worker
// count — so every RestartWorkers value walks the identical restart
// decomposition. A single segment (small inputs) degenerates to the paper's
// fully sequential restart chain. The span uses min(SMax, n), which no
// window exceeds, so a huge SMax cannot overflow it into a loop that never
// advances.
func planSegments(n int, opts Options) []segment {
	span := segmentSpanFactor * min(opts.SMax, n)
	lastStart := n - opts.SMin
	var segs []segment
	for from := 0; from <= lastStart; from += span {
		limit := from + span
		if limit > lastStart+1 {
			limit = lastStart + 1
		}
		segs = append(segs, segment{index: len(segs), from: from, limit: limit})
	}
	return segs
}

// restartWorkers resolves Options.RestartWorkers against the plan: ≤0 means
// GOMAXPROCS, never more workers than segments, and a deterministic
// evaluation budget forces sequential execution — a budget stop depends on
// the cumulative evaluation count, which is schedule-dependent the moment two
// workers accrue evaluations concurrently (see Options.MaxEvaluations).
func restartWorkers(opts Options, numSegments int) int {
	w := opts.RestartWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if opts.MaxEvaluations > 0 {
		w = 1
	}
	if w > numSegments {
		w = numSegments
	}
	if w < 1 {
		w = 1
	}
	return w
}

// splitmix64 is the SplitMix64 finalizer — a cheap, high-quality bijective
// mixer used to derive independent per-restart seeds from the root seed.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// restartSeed derives the LAHC acceptor seed for one restart from the root
// seed and the restart's (segment, local index) coordinates. Deriving per
// restart — rather than threading one RNG through the whole search — is what
// makes the walk schedule-independent: a restart's randomness depends only on
// where it is in the plan, not on which worker ran how many restarts before
// it.
func restartSeed(root int64, seg, restart int) int64 {
	h := splitmix64(uint64(root))
	h = splitmix64(h ^ uint64(seg))
	h = splitmix64(h ^ uint64(restart))
	return int64(h)
}

// segmentResult is one segment's contribution, produced worker-locally and
// merged by the coordinator in segment order. events and counters are
// collected for an observed search only. Nothing in it may live in the
// segment scratch, which returns to the free list before the merge reads it.
type segmentResult struct {
	cands    []window.Scored
	stats    Stats
	memoHits int
	events   []obs.Event
	counters []counter
	stop     StopReason
}

// segmentFaultKey names a segment for the faultinject registry; robustness
// tests arm panics against it to prove that a fault inside a restart worker
// surfaces on the search's own goroutine (where the sweep-level isolation can
// catch it) instead of killing the process. Only panic/delay faults are
// meaningful here — a segment has no error return path.
func segmentFaultKey(pairName string, seg int) string {
	return fmt.Sprintf("segment:%s:%d", pairName, seg)
}

// runSegmentsSequential processes segments in order on the calling
// goroutine, chaining the evaluation count through evalBase so a
// deterministic MaxEvaluations budget is charged against the whole search,
// not per segment. Segments after a stop never run — exactly the prefix the
// merge of a parallel run reconstructs by discarding post-stop segments.
func runSegmentsSequential(ctx context.Context, p series.Pair, opts Options, cons window.Constraints, null *nullModel, pairName string, segs []segment) []segmentResult {
	results := make([]segmentResult, 0, len(segs))
	evalBase := 0
	for _, seg := range segs {
		sr := runSegment(ctx, p, opts, cons, null, pairName, seg, evalBase)
		results = append(results, sr)
		if sr.stop != "" {
			break
		}
		evalBase += sr.stats.WindowsEvaluated
	}
	return results
}

// workerPanic wraps a panic captured on a restart worker so it can be
// rethrown on the search's goroutine with the worker's stack attached.
type workerPanic struct {
	value any
	stack []byte
}

func (w *workerPanic) String() string {
	return fmt.Sprintf("%v\n\nrestart worker stack:\n%s", w.value, w.stack)
}

// runSegmentsParallel fans the segments out over a pool of workers. Workers
// pull the next unprocessed segment index (work stealing keeps long segments
// from serialising the tail) and write results into the per-segment slot, so
// no ordering information leaks from the schedule. A panic inside a segment
// is captured with its stack and rethrown on the calling goroutine after the
// pool drains — same crash semantics as the sequential path, which is what
// the sweep-level fault isolation relies on.
func runSegmentsParallel(ctx context.Context, p series.Pair, opts Options, cons window.Constraints, null *nullModel, pairName string, segs []segment, workers int) []segmentResult {
	results := make([]segmentResult, len(segs))
	panics := make([]*workerPanic, len(segs))
	var next int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt32(&next, 1)) - 1
				if i >= len(segs) {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panics[i] = &workerPanic{value: r, stack: debug.Stack()}
						}
					}()
					results[i] = runSegment(ctx, p, opts, cons, null, pairName, segs[i], 0)
				}()
			}
		}()
	}
	wg.Wait()
	for _, pv := range panics {
		if pv != nil {
			panic(pv)
		}
	}
	return results
}

// runSegment runs one segment's chained restart loop with fully private
// state: its own scorer (and with it all incremental-MI and k-NN caches), its
// own score memo, stats, candidates and event buffer. evalBase charges
// evaluations spent by earlier segments against this segment's deterministic
// budget (sequential mode only; parallel runs never carry a budget).
func runSegment(ctx context.Context, p series.Pair, opts Options, cons window.Constraints, null *nullModel, pairName string, seg segment, evalBase int) segmentResult {
	if err := faultinject.Fire(segmentFaultKey(pairName, seg.index)); err != nil {
		panic(err)
	}
	scratch := scratchPool.take()
	s := &searcher{
		pair:      p,
		opts:      opts,
		cons:      cons,
		scorer:    newScorer(p, opts, null, scratch),
		null:      null,
		ctx:       ctx,
		seg:       seg,
		evalBase:  evalBase,
		observing: opts.Observer != nil,
		pairName:  pairName,
		scratch:   scratch,
	}
	if !opts.bypassMemo {
		s.memo = &scratch.memo
	}
	s.run()
	sr := segmentResult{
		cands:    s.cands,
		stats:    s.stats,
		memoHits: s.memoHits,
		events:   s.events,
		stop:     s.stop,
	}
	if s.observing {
		sr.counters = s.scorer.counters()
	}
	// The scorer is done: counters are captured, so the segment's scratch
	// goes back to the free list. None of sr lives in it.
	scratchPool.put(scratch)
	return sr
}

// newScorer sets up the variant's scorer afresh in the segment scratch, over
// the pair and sharing the read-only null model, with the scratch's τ-planes
// for its batch estimates (none when planes are bypassed).
func newScorer(p series.Pair, opts Options, null *nullModel, scratch *segScratch) scorer {
	var planes []tauPlane
	if !opts.bypassPlanes {
		planes = scratch.planes[:]
	}
	if opts.Variant.incremental() {
		scratch.inc = newIncScorer(p, opts.K, opts.Normalization)
		scratch.inc.null, scratch.inc.small.planes = null, planes
		return &scratch.inc
	}
	scratch.batch = newBatchScorer(p, opts.K, opts.Normalization)
	scratch.batch.null, scratch.batch.planes = null, planes
	return &scratch.batch
}

// addStats folds one segment's work counters into the search totals. Timing
// and StopReason are coordinator-owned and excluded.
func addStats(dst *Stats, s Stats) {
	dst.WindowsEvaluated += s.WindowsEvaluated
	dst.MIBatch += s.MIBatch
	dst.MIIncremental += s.MIIncremental
	dst.Restarts += s.Restarts
	dst.PrunedDirections += s.PrunedDirections
	dst.NoiseBlocks += s.NoiseBlocks
}
