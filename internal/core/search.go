package core

import (
	"cmp"
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"

	"tycos/internal/freelist"
	"tycos/internal/mi"
	"tycos/internal/obs"
	"tycos/internal/series"
	"tycos/internal/window"
)

// searcher carries the worker-local state of one restart segment's scan:
// chained LAHC restarts over the segment's scan positions with a private
// scorer, private stats, private candidate list and a private event buffer,
// so segments can run on concurrent workers without any shared mutable state
// (see parallel.go for the decomposition and its determinism rules).
type searcher struct {
	pair   series.Pair
	opts   Options
	cons   window.Constraints
	scorer scorer
	null   *nullModel
	// memo answers windows this segment has already scored (see memo.go);
	// memoHits counts the lookups it served. A nil memo sends every lookup
	// to the scorer.
	memo     *scoreMemo
	memoHits int
	// scratch is the segment scratch (see memo.go). Besides the memo, the
	// scorer and its τ-planes it holds what every climb reuses: the
	// acceptor, its RNG and the neighbourhood buffer. Nothing the segment
	// hands to the merge lives there.
	scratch *segScratch
	stats   Stats
	ctx     context.Context
	stop    StopReason // first triggered stop condition ("" while running)
	seg     segment

	// evalBase is the evaluation count charged by earlier segments; the
	// deterministic MaxEvaluations budget compares against evalBase plus this
	// segment's own count (sequential execution only — parallel runs never
	// carry a budget, see restartWorkers).
	evalBase int

	observing bool        // Options.Observer != nil: buffer events for replay
	events    []obs.Event // worker-local buffer, replayed in merge order
	cands     []window.Scored
	pairName  string // "x/y" event label, "" for unnamed series
}

// obsWindow converts a search window into its observability mirror.
func obsWindow(w window.Window) obs.Window {
	return obs.Window{Start: w.Start, End: w.End, Delay: w.Delay}
}

// pairLabel names a pair for events; unnamed series yield "".
func pairLabel(p series.Pair) string {
	if p.X.Name == "" && p.Y.Name == "" {
		return ""
	}
	return p.X.Name + "/" + p.Y.Name
}

// emit buffers an event for ordered replay by the coordinator. Workers never
// touch Options.Observer directly: replaying buffered events in segment order
// keeps the trace identical for every RestartWorkers value. emit is generic
// so that the event is boxed into an obs.Event inside the check: an
// unobserved search allocates nothing for its events.
func emit[E obs.Event](s *searcher, e E) {
	if s.observing {
		s.events = append(s.events, e)
	}
}

// Search runs TYCOS over the pair with the configured variant and returns
// the accepted non-overlapping windows, scored with the configured
// normalization, sorted by start index.
//
// The search is Algorithm 1 (plus Algorithm 2 for the noise variants): LAHC
// climbs from an initial window, exploring δ-neighbourhoods that widen while
// no improvement is found; when T_maxIdle explorations in a row fail to
// improve, the local optimum is recorded and the search restarts on the
// unscanned remainder until the pair is covered. Restarts are decomposed
// into fixed segments fanned over Options.RestartWorkers workers; results
// are byte-identical for every worker count (see parallel.go).
func Search(p series.Pair, opts Options) (Result, error) {
	return SearchContext(context.Background(), p, opts)
}

// SearchContext is Search with cooperative cancellation. The context is
// checked at restart and climb-iteration boundaries; on cancellation (or an
// exceeded Options budget) the search returns the windows accepted so far
// with Result.Partial set and Stats.StopReason recording the cause, rather
// than an error — partial results from a cancelled search remain valid,
// prefix-consistent output (work done by restart workers past the first
// stopped segment is discarded to keep it so).
func SearchContext(ctx context.Context, p series.Pair, opts Options) (Result, error) {
	start := clockNow()
	if err := opts.Validate(p.Len()); err != nil {
		return Result{}, err
	}
	opts = opts.withDefaults()
	if err := p.CheckFinite(); err != nil {
		return Result{}, errors.New("core: " + err.Error() + " (clean the input with series.FillMissing)")
	}
	p = jitterPair(p, opts.Jitter, opts.Seed)
	sink := opts.Observer
	// Only an observed search's events carry the pair's label.
	var pairName string
	if sink != nil {
		pairName = pairLabel(p)
	}
	// When the caller put a trace span in the context (e.g. the daemon's
	// per-request root span), every observation of this search is stamped
	// with a deterministic child span: the observer is wrapped once here, so
	// worker event buffers stay raw and the byte-identical merge contract is
	// untouched. The child is qualified by the pair so a sweep's searches get
	// distinct spans under one request. With no span in the context (or no
	// observer) this is a no-op and the nil-sink hot path stays free.
	var searchSpan obs.SpanContext
	if sink != nil {
		if sc, ok := obs.SpanFromContext(ctx); ok {
			name := "search"
			if pairName != "" {
				name += ":" + pairName
			}
			searchSpan = sc.Child(name)
			sink = obs.WithSpan(sink, searchSpan)
		}
	}
	var timing Timing
	timing.Validate = clockSince(start)
	if sink != nil {
		sink.PhaseEnd(obs.PhaseValidate, timing.Validate)
	}
	var null *nullModel
	if opts.SignificanceLevel > 0 {
		// A dedicated RNG keeps the calibration from perturbing the walk; the
		// model is built once, before the fan-out, and is read-only shared
		// state from then on.
		nmStart := clockNow()
		//lint:allow seedflow fixed pre-idiom domain offset; committed goldens and EXPERIMENTS results pin this stream
		null = buildNullModel(p, opts, rand.New(rand.NewSource(opts.Seed+0x5eed)))
		timing.NullModel = clockSince(nmStart)
		if sink != nil {
			sink.PhaseEnd(obs.PhaseNullModel, timing.NullModel)
		}
	}

	// The search scratch goes back to the free list when the search
	// returns, after the result is copied out of it.
	sc := searchPool.Take()
	defer searchPool.Put(sc)
	sc.ctx, sc.pair, sc.opts, sc.null, sc.pairName = ctx, p, opts, null, pairName
	sc.cons = opts.constraints(p.Len())
	sc.segs = planSegments(sc.segs, p.Len(), opts)
	segs := sc.segs
	sc.cands = freelist.Grow(sc.cands, len(segs))
	workers := restartWorkers(opts, len(segs))

	climbStart := clockNow()
	var segResults []segmentResult
	if workers <= 1 {
		segResults = sc.sequential(segs)
	} else {
		segResults = sc.parallel(segs, workers)
	}

	// Merge in segment order — never completion order. Everything after the
	// first stopped segment is discarded: in sequential mode those segments
	// never ran, and reconstructing exactly that prefix here is what keeps
	// partial results deterministic and mode-independent.
	var (
		stats        Stats
		memoHits     int
		stop         StopReason
		counterNames []string
		counterVals  map[string]int64
	)
	candidates := sc.merged
	restartOffset := 0
	for _, sr := range segResults {
		if sink != nil {
			// Only an observed search's segments collect events and
			// counters: nothing else reads them.
			for _, e := range sr.events {
				// Restart indices are worker-local; renumber into the global
				// merge order so traces read like one sequential search.
				switch ev := e.(type) {
				case obs.RestartStarted:
					ev.Restart += restartOffset
					sink.Event(ev)
				case obs.ClimbFinished:
					ev.Restart += restartOffset
					sink.Event(ev)
				default:
					sink.Event(e)
				}
			}
			for _, c := range sr.counters {
				if counterVals == nil {
					counterVals = make(map[string]int64)
				}
				if _, seen := counterVals[c.name]; !seen {
					counterNames = append(counterNames, c.name)
				}
				counterVals[c.name] += c.value
			}
		}
		candidates = append(candidates, sr.cands...)
		addStats(&stats, sr.stats)
		memoHits += sr.memoHits
		restartOffset += sr.stats.Restarts
		if sr.stop != "" {
			stop = sr.stop
			break
		}
	}
	sc.merged = candidates
	timing.Climb = clockSince(climbStart)
	if sink != nil {
		sink.PhaseEnd(obs.PhaseClimb, timing.Climb)
	}

	finStart := clockNow()
	var topk *mi.TopK
	for _, c := range candidates {
		if opts.onCandidate != nil {
			opts.onCandidate(c)
		}
		if topk == nil && opts.TopK > 0 {
			topk = &sc.topk
			topk.Reset(opts.TopK, c.MI)
		}
		if topk != nil {
			topk.Offer(c.MI)
		}
	}
	threshold := opts.Sigma
	if topk != nil {
		threshold = topk.Threshold()
	}
	// The accepted set is built in scratch; Items copies it out once.
	for _, c := range candidates {
		if c.MI >= threshold {
			sc.set.Insert(c)
		}
	}
	items := sc.set.Items()
	if topk != nil && len(items) > opts.TopK {
		slices.SortFunc(items, func(a, b window.Scored) int { return cmp.Compare(b.MI, a.MI) })
		items = items[:opts.TopK]
		slices.SortFunc(items, func(a, b window.Scored) int { return cmp.Compare(a.Start, b.Start) })
	}
	if stop == "" {
		stop = StopCompleted
	}
	stats.StopReason = stop
	timing.Finalize = clockSince(finStart)
	timing.Total = clockSince(start)
	if secs := timing.Total.Seconds(); secs > 0 {
		timing.EvalsPerSec = float64(stats.WindowsEvaluated) / secs
	}
	stats.Timing = timing
	if sink != nil {
		sink.PhaseEnd(obs.PhaseFinalize, timing.Finalize)
		// One CandidateAccepted per returned window, in output order.
		for _, it := range items {
			sink.Event(obs.CandidateAccepted{Pair: pairName, Window: obsWindow(it.Window), Score: it.MI})
		}
		emitCounters(sink, opts, stats, memoHits, counterNames, counterVals)
		if searchSpan.Valid() {
			sink.Event(obs.SpanFinished{Name: "search", DurationNS: int64(timing.Total)})
		}
	}
	return Result{Windows: items, Stats: stats, Partial: stop != StopCompleted}, nil
}

// emitCounters publishes the search's final counter totals to the observer.
// Totals are emitted once per search rather than per increment, so counters
// never touch the climb's hot path; scorer-level counters arrive pre-merged
// across segments in first-seen order. memo_hits counts the
// windows_evaluated that the segments' score memos answered.
func emitCounters(sink obs.Sink, opts Options, stats Stats, memoHits int, names []string, vals map[string]int64) {
	sink.Count("windows_evaluated", int64(stats.WindowsEvaluated))
	sink.Count("memo_hits", int64(memoHits))
	sink.Count("restarts", int64(stats.Restarts))
	sink.Count("mi_batch", int64(stats.MIBatch))
	sink.Count("mi_incremental", int64(stats.MIIncremental))
	if opts.Variant.noise() {
		sink.Count("pruned_directions", int64(stats.PrunedDirections))
		sink.Count("noise_blocks", int64(stats.NoiseBlocks))
	}
	for _, name := range names {
		sink.Count(name, vals[name])
	}
}

// run executes the segment's chained restart loop: climb, record the local
// optimum, restart on the unscanned remainder, until the segment's scan
// positions are exhausted or a stop condition fires. Restart indices in
// buffered events are segment-local; the coordinator renumbers them.
func (s *searcher) run() {
	scanFrom := s.seg.from
	for scanFrom < s.seg.limit {
		if s.checkStop() {
			break
		}
		restart := s.stats.Restarts
		// The acceptor RNG is created by the first restart whose scratch has
		// none, and re-seeded by every other: Seed resets the stream exactly
		// as a fresh source would, without a new source's allocation.
		if s.scratch.rng == nil {
			s.scratch.rng = rand.New(rand.NewSource(restartSeed(s.opts.Seed, s.seg.index, restart)))
		} else {
			s.scratch.rng.Seed(restartSeed(s.opts.Seed, s.seg.index, restart))
		}
		emit(s, obs.RestartStarted{Pair: s.pairName, Restart: restart, ScanFrom: scanFrom})
		evalsBefore := s.stats.WindowsEvaluated
		w0, ok := s.initialWindow(scanFrom)
		if !ok {
			break
		}
		best, bestScore, iters, completed := s.climb(w0)
		if !completed {
			// The interrupted climb's best-so-far may differ from what the
			// full climb would have settled on; dropping it keeps partial
			// results a prefix of the uninterrupted run.
			break
		}
		if s.null != nil {
			// The reported and thresholded score is the significance-
			// corrected one; the climb's internal score is uncorrected.
			if corrected, err := s.scorer.finalScore(best); err == nil {
				bestScore = corrected
			}
		}
		emit(s, obs.ClimbFinished{
			Pair:        s.pairName,
			Restart:     restart,
			Window:      obsWindow(best),
			Score:       bestScore,
			Iterations:  iters,
			Evaluations: s.stats.WindowsEvaluated - evalsBefore,
		})
		s.cands = append(s.cands, window.Scored{Window: best, MI: bestScore})
		s.stats.Restarts++
		next := best.End + 1
		if min := scanFrom + s.opts.SMin; next < min {
			next = min
		}
		scanFrom = next
	}
	s.stats.MIBatch, s.stats.MIIncremental = s.scorer.stats()
}

// checkStop records the first exceeded budget or cancellation and reports
// whether the search must stop. It is called at restart and climb-iteration
// boundaries only, so a stop never interrupts a neighbourhood evaluation —
// that keeps the stop point, and hence the returned windows, deterministic
// for the deterministic budgets. The evaluation budget is checked before the
// context so that a run configured with both stops identically whether or
// not the context also fired; it counts evalBase (earlier segments' work) on
// top of this segment's own, which is only meaningful because a budgeted
// search runs its segments sequentially. Wall-clock budgets arrive as context
// deadlines and stop the search with StopDeadline.
func (s *searcher) checkStop() bool {
	if s.stop != "" {
		return true
	}
	if s.opts.MaxEvaluations > 0 && s.evalBase+s.stats.WindowsEvaluated >= s.opts.MaxEvaluations {
		s.stop = StopBudget
		return true
	}
	select {
	case <-s.ctx.Done():
		if errors.Is(s.ctx.Err(), context.DeadlineExceeded) {
			s.stop = StopDeadline
		} else {
			s.stop = StopCancelled
		}
		return true
	default:
	}
	return false
}

// initialWindow picks the starting solution for a climb: the plain variants
// start at the minimal window at the scan position (Algorithm 1, line 2);
// the noise variants run the Section 6.2.1 hierarchical construction.
func (s *searcher) initialWindow(from int) (window.Window, bool) {
	if s.opts.Variant.noise() {
		return s.initialNoisePruning(from)
	}
	w := window.Window{Start: from, End: from + s.opts.SMin - 1, Delay: 0}
	return w, s.cons.Feasible(w)
}

// climb runs one LAHC ascent from w0 and returns the best feasible window
// seen with its score, along with the number of loop iterations it ran.
// completed is false when a stop condition interrupted the ascent before its
// idle budget ran out.
func (s *searcher) climb(w0 window.Window) (best window.Window, bestScore float64, iters int, completed bool) {
	cur := w0
	curScore := s.mustScore(cur)
	best, bestScore = cur, curScore

	// The scratch's acceptor is renewed for each climb: its history is
	// refilled with the start score, not allocated again.
	acceptor := &s.scratch.acceptor
	acceptor.Renew(s.opts.HistoryLength, curScore, s.scratch.rng)
	idle := 0
	level := 1
	var pruned pruneFlags
	if s.opts.Variant.noise() {
		pruned = s.prunedDirections(cur)
	}

	// Hard ceiling against pathological wandering; in practice the idle
	// budget stops the climb long before this. Saturating arithmetic keeps a
	// huge MaxIdle or SMax from wrapping the ceiling negative, which would
	// skip the climb.
	maxIters := satAdd(satMul(100, s.opts.MaxIdle), satMul(2, s.opts.SMax)/s.opts.Delta)

	for iter := 0; idle < s.opts.MaxIdle && iter < maxIters; iter++ {
		iters = iter + 1
		if s.checkStop() {
			return best, bestScore, iters, false
		}
		neighbors := neighborhood(cur, s.opts.Delta, level, s.cons, pruned, s.scratch.nbuf)
		s.scratch.nbuf = neighbors
		if len(neighbors) == 0 {
			idle++
			level++
			continue
		}
		s.plan(neighbors)
		bestnb := neighbors[0]
		bestnbScore := s.mustScore(bestnb)
		//lint:allow ctxflow the neighbourhood is bounded (≤26 windows); stopping only at climb-iteration boundaries keeps the stop point deterministic
		for _, nb := range neighbors[1:] {
			if sc := s.mustScore(nb); sc > bestnbScore {
				bestnb, bestnbScore = nb, sc
			}
		}
		newCur, accepted := acceptor.Consider(curScore, bestnbScore)
		if accepted {
			cur, curScore = bestnb, newCur
			if s.opts.Variant.noise() {
				pruned = s.prunedDirections(cur)
			}
		}
		// The idle budget counts explorations that fail to push the climb's
		// best solution meaningfully forward. Resetting on any accepted move
		// would let LAHC's late acceptance cycle (drop, re-improve, …)
		// forever, and resetting on any new best would let estimator noise
		// across thousands of visited windows trickle microscopic records;
		// progress therefore requires beating the best by MinImprovement.
		progressed := accepted && curScore > bestScore+s.opts.MinImprovement
		if accepted && curScore > bestScore {
			best, bestScore = cur, curScore
		}
		if progressed {
			idle = 0
			level = 1
		} else {
			idle++
			level++
		}
	}
	return best, bestScore, iters, true
}

// satMul returns a·b for non-negative a and b, saturated at math.MaxInt.
func satMul(a, b int) int {
	if a != 0 && b > math.MaxInt/a {
		return math.MaxInt
	}
	return a * b
}

// satAdd returns a+b for non-negative a and b, saturated at math.MaxInt.
func satAdd(a, b int) int {
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

// mustScore scores a window, mapping estimation failures (degenerate or
// undersized windows) to 0 — such windows carry no usable evidence of
// correlation.
func (s *searcher) mustScore(w window.Window) float64 {
	_, sc, err := s.both(w)
	if err != nil {
		return 0
	}
	s.stats.WindowsEvaluated++
	return sc
}
