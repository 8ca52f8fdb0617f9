package core

import (
	"cmp"
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"

	"tycos/internal/freelist"
	"tycos/internal/lahc"
	"tycos/internal/mi"
	"tycos/internal/obs"
	"tycos/internal/series"
	"tycos/internal/window"
)

// searcher carries the worker-local state of one restart segment's scan:
// chained LAHC restarts over the segment's scan positions with a private
// scorer, private stats, private candidate list and a private event buffer
// or tally, so segments can run on concurrent workers without any shared
// mutable state (see parallel.go for the decomposition and its determinism
// rules).
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

	// observing is set for an observed search. Its events are counted by
	// kind in tally when the observer only counts them (tallying), and
	// otherwise buffered in events, replayed in merge order.
	observing bool
	tallying  bool
	tally     eventTally
	events    []obs.Event
	cands     []window.Scored
	pairName  string // "x/y" event label, "" for unnamed series or a tally
}

// kindCounter is a sink that only counts events, by kind: the bare
// obs.Registry. A search observed by one hands it one total per kind
// instead of every event, so no event is boxed, buffered or replayed. No
// wrapper or fan-out implements it, so every other sink receives the
// ordered event stream.
type kindCounter interface {
	// CountKind adds n events of the kind to the sink's totals.
	CountKind(kind string, n int64)
}

// tallyKinds are the event kinds a segment emits, in the order the merge
// hands their totals to a kindCounter.
var tallyKinds = [...]string{
	obs.RestartStarted{}.Kind(),
	obs.ClimbFinished{}.Kind(),
	obs.DirectionPruned{}.Kind(),
	obs.NoiseBlockSkipped{}.Kind(),
}

// eventTally counts events by kind, indexed like tallyKinds.
type eventTally [len(tallyKinds)]int64

// add counts one event of the kind.
func (t *eventTally) add(kind string) {
	for i, k := range tallyKinds {
		if k == kind {
			t[i]++
			return
		}
	}
	panic("core: no tally for event kind " + kind)
}

// countInto hands the counter each kind's total, skipping kinds the search
// never emitted, which per-event delivery would not have registered.
func (t *eventTally) countInto(c kindCounter) {
	for i, n := range t {
		if n > 0 {
			c.CountKind(tallyKinds[i], n)
		}
	}
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

// emit tallies an event by kind, or buffers it for ordered replay by the
// coordinator. Workers never touch Options.Observer directly: replaying
// buffered events in segment order keeps the trace identical for every
// RestartWorkers value. emit is generic so that the event is boxed into an
// obs.Event only when it is buffered: an unobserved or tallying search
// allocates nothing for its events.
func emit[E obs.Event](s *searcher, e E) {
	switch {
	case s.tallying:
		s.tally.add(e.Kind())
	case s.observing:
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
	return SearchTable(ctx, p, opts, TableHandle{})
}

// SearchTable is SearchContext bound to a score table through h: the
// search takes the raw KSG estimates of windows that earlier searches bound
// to h's handle estimated from the table, and enters the ones it estimates
// itself (see scoretable.go). h must name p's values at the search's KSG k,
// as ScoreTable.Handle requires. Windows, Stats and events are those of
// SearchContext whatever the table holds; an observer also receives the
// score_table_hits counter. A jittered search binds nothing, and neither do
// a handle for another k, a stale handle or the zero handle: a jittered
// pair's values depend on the series' length, so they change as a stored
// series grows.
func SearchTable(ctx context.Context, p series.Pair, opts Options, h TableHandle) (Result, error) {
	start := clockNow()
	if err := opts.Validate(p.Len()); err != nil {
		return Result{}, err
	}
	opts = opts.withDefaults()
	if err := p.CheckFinite(); err != nil {
		return Result{}, errors.New("core: " + err.Error() + " (clean the input with series.FillMissing)")
	}
	if h.t == nil || opts.Jitter > 0 || h.k != opts.K || !h.t.Live(h) {
		h = TableHandle{}
	}
	p = jitterPair(p, opts.Jitter, opts.Seed)
	sink := opts.Observer
	var (
		searchSpan obs.SpanContext
		counter    kindCounter
		pairName   string
	)
	if sink != nil {
		// When the caller put a trace span in the context (e.g. the
		// daemon's per-request root span), every observation of this search
		// is stamped with a deterministic child span: the observer is
		// wrapped once here, so worker event buffers stay raw and the
		// byte-identical merge contract is untouched. The child is
		// qualified by the pair so a sweep's searches get distinct spans
		// under one request. With no span in the context this is a no-op.
		parent, spanned := obs.SpanFromContext(ctx)
		// An unstamped sink that only counts events gets one total per
		// kind. The pair's label rides on every other sink's events and on
		// the span's name.
		if !spanned {
			counter, _ = sink.(kindCounter)
		}
		if counter == nil {
			pairName = pairLabel(p)
		}
		if spanned {
			name := "search"
			if pairName != "" {
				name += ":" + pairName
			}
			searchSpan = parent.Child(name)
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
	sc.ctx, sc.pair, sc.opts, sc.null, sc.pairName, sc.table = ctx, p, opts, null, pairName, h
	sc.tallying = counter != nil
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
		stats    Stats
		memoHits int
		stop     StopReason
		tally    eventTally
		counts   scorerCounts
	)
	candidates := sc.merged
	restartOffset := 0
	for _, sr := range segResults {
		// Only an observed search's segments report events and counters:
		// nothing else reads them.
		if counter != nil {
			for i, n := range sr.tally {
				tally[i] += n
			}
		} else if sink != nil {
			replay(sink, sr.events, restartOffset)
		}
		counts.add(sr.counts)
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
	if counter != nil {
		tally.countInto(counter)
	}
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
		// One CandidateAccepted per returned window, in output order; a
		// kind counter gets their number (none for no window, as above).
		if counter != nil {
			if len(items) > 0 {
				counter.CountKind(obs.CandidateAccepted{}.Kind(), int64(len(items)))
			}
		} else {
			for _, it := range items {
				sink.Event(obs.CandidateAccepted{Pair: pairName, Window: obsWindow(it.Window), Score: it.MI})
			}
		}
		emitCounters(sink, opts, stats, memoHits, &counts, h.t != nil)
		if searchSpan.Valid() {
			sink.Event(obs.SpanFinished{Name: "search", DurationNS: int64(timing.Total)})
		}
	}
	return Result{Windows: items, Stats: stats, Partial: stop != StopCompleted}, nil
}

// replay delivers a segment's buffered events to the sink in order. Restart
// indices are segment-local; renumbering them into the global merge order
// makes a trace read like one sequential search.
func replay(sink obs.Sink, events []obs.Event, restartOffset int) {
	for _, e := range events {
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
}

// emitCounters publishes the search's final counter totals to the observer.
// Totals are emitted once per search rather than per increment, so counters
// never touch the climb's hot path; scorer-level counters arrive summed
// across segments. memo_hits counts the windows_evaluated that the
// segments' score memos answered; a search bound to a score table also
// reports the estimates the table served.
func emitCounters(sink obs.Sink, opts Options, stats Stats, memoHits int, counts *scorerCounts, bound bool) {
	sink.Count("windows_evaluated", int64(stats.WindowsEvaluated))
	sink.Count("memo_hits", int64(memoHits))
	sink.Count("restarts", int64(stats.Restarts))
	sink.Count("mi_batch", int64(stats.MIBatch))
	sink.Count("mi_incremental", int64(stats.MIIncremental))
	if opts.Variant.noise() {
		sink.Count("pruned_directions", int64(stats.PrunedDirections))
		sink.Count("noise_blocks", int64(stats.NoiseBlocks))
	}
	counts.emit(sink, opts.Variant.incremental(), bound)
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
		// as a fresh source would, without a new source's allocation. The
		// source draws math/rand's stream but seeds in O(1) (see
		// lahc.Source): a climb reads a few dozen of the 607 words that
		// math/rand's Seed would fill.
		if s.scratch.rng == nil {
			s.scratch.rng = rand.New(lahc.NewSource(restartSeed(s.opts.Seed, s.seg.index, restart)))
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
