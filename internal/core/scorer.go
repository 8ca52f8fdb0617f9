package core

import (
	"math"
	"math/rand"

	"tycos/internal/mi"
	"tycos/internal/series"
	"tycos/internal/window"
)

// scorer evaluates the (normalized) MI of time-delay windows. The batch
// implementation estimates every window from scratch (TYCOS_L/LN); the
// incremental implementation keeps KSG state across calls and applies only
// the point-level differences between consecutive windows (TYCOS_LM/LMN).
type scorer interface {
	// both returns the raw KSG estimate of w and its normalized score, or an
	// error for infeasible or degenerate windows. The climb runs on the
	// normalized score; the noise theory also needs the raw value:
	// Theorem 6.1 bounds raw MI under mixing, and normalized scores shrink
	// with window size by construction, which would make every
	// concatenation look like a decrease. Both values are a pure function
	// of the window, whatever the scorer scored before (the score memo
	// relies on it).
	both(w window.Window) (raw, norm float64, err error)
	// finalScore is both's normalized score with the significance
	// correction applied (when a null model is configured): the calibrated
	// null level for the window's size is subtracted from the raw MI before
	// normalization. The climb runs on uncorrected scores — subtracting
	// during the walk would flatten the very gradients it follows — and only
	// the acceptance decision uses the corrected value.
	finalScore(w window.Window) (float64, error)
	// stats exposes the work counters accumulated so far.
	stats() (batch, incremental int)
	// counters exposes the estimator-level work counters beneath stats()
	// (KSG estimations, incremental point operations) for the observability
	// layer. Called once per search, at the end.
	counters() []counter
	// release hands reusable estimator state back to a shared
	// Options.EstimatorCache, if one is configured. Called after counters(),
	// when the scorer is done; the scorer must not be used afterwards.
	release()
}

// counter is one named estimator-level work total.
type counter struct {
	name  string
	value int64
}

// batchScorer re-estimates every window independently.
type batchScorer struct {
	pair   series.Pair
	est    *mi.KSG
	norm   mi.Normalization
	null   *nullModel
	nBatch int
}

func newBatchScorer(p series.Pair, k int, norm mi.Normalization) *batchScorer {
	return &batchScorer{pair: p, est: mi.NewKSG(k, mi.BackendKDTree), norm: norm}
}

func (s *batchScorer) both(w window.Window) (float64, float64, error) {
	return s.scoreNull(w, nil)
}

func (s *batchScorer) finalScore(w window.Window) (float64, error) {
	_, norm, err := s.scoreNull(w, s.null)
	return norm, err
}

func (s *batchScorer) scoreNull(w window.Window, null *nullModel) (float64, float64, error) {
	raw, xs, ys, err := s.estimate(w)
	if err != nil {
		return 0, 0, err
	}
	// No floor at 0: near-unbiased KSG estimates on noise are slightly
	// negative, and their ordering is the gradient texture the climb uses.
	// The σ acceptance threshold keeps negative scores out of the results.
	adj := raw - null.at(len(xs))
	return raw, mi.Normalize(adj, xs, ys, s.norm), nil
}

// estimate returns the raw KSG estimate of w from scratch, with the samples
// it was estimated on.
func (s *batchScorer) estimate(w window.Window) (raw float64, xs, ys []float64, err error) {
	xs, ys, err = s.pair.DelaySlice(w.Start, w.End, w.Delay)
	if err != nil {
		return 0, nil, nil, err
	}
	raw, err = s.est.Estimate(xs, ys)
	if err != nil {
		return 0, nil, nil, err
	}
	s.nBatch++
	return raw, xs, ys, nil
}

func (s *batchScorer) stats() (int, int) { return s.nBatch, 0 }

// release is a no-op: the batch scorer holds no poolable incremental state.
func (s *batchScorer) release() {}

func (s *batchScorer) counters() []counter {
	return []counter{{"mi.ksg_estimates", int64(s.est.Estimates())}}
}

// incScorer keeps incremental KSG estimators positioned at recently scored
// windows, one per time delay, and diffs each scored window against the
// estimator of its delay. Same-delay moves are applied as edge
// insertions/removals; a window at a delay with no cached estimator pays one
// rebuild, after which that τ-plane is explored incrementally. The small
// per-delay cache is what makes the LAHC neighbourhood — which mixes three
// delays per exploration — profitable to evaluate incrementally; with a
// single estimator every delay change would force a rebuild and TYCOS_LM
// would run slower than TYCOS_L. Windows of at most smallWindow samples
// skip the estimators and take a batch estimate (see smallWindow).
type incScorer struct {
	pair series.Pair
	k    int
	norm mi.Normalization
	null *nullModel

	// small estimates the windows routed to batch and counts them; it never
	// touches the cached estimators, the LRU clock or the pool.
	small batchScorer

	states map[int]*incState // keyed by delay
	tick   int               // LRU clock

	nRebuild int // estimator rebuilds
	nInc     int // incremental moves

	// retired accumulates the op counters of estimators dropped from the
	// cache (evicted or replaced), so counters() reports the whole search's
	// point-level work, not just the survivors'.
	retired mi.IncrementalOps

	// pool recycles the estimators of dropped cache entries: a rebuild takes
	// one from here and Reloads it — same counters and results as a fresh
	// estimator, but reusing the multiset, point-state and list
	// allocations. ids is the matching reusable id scratch.
	pool []*mi.Incremental
	ids  []int

	// shared, when non-nil, is the cross-search estimator cache
	// (Options.EstimatorCache): rebuilds with an empty local pool draw from
	// it, and release() returns every estimator to it when the search ends.
	shared *EstimatorCache
}

// incState is one cached estimator and the window it is positioned at.
type incState struct {
	inc     *mi.Incremental
	cur     window.Window
	lastUse int
}

// maxIncStates bounds the per-delay estimator cache. A neighbourhood touches
// three delays; a few extra slots cover the climb's recent τ history.
const maxIncStates = 6

// smallWindow is the largest window incScorer scores with a batch estimate
// (the all-pairs kernel) instead of moving or reloading an incremental
// estimator. BenchmarkRouteCrossover prices the two paths per scored window
// over recorded climbs held near m samples (k = 4, 2-vCPU Xeon VM, Go 1.24,
// medians of three runs), batch → incremental: 3.9 → 4.4 µs at m = 16,
// 7.0 → 5.9 at 24, 11.2 → 7.5 at 32, 22.1 → 11.2 at 48, 35.7 → 15.0 at 64.
// In a search the sizes mix: a climb that grows past the threshold reloads
// the estimator its small windows left behind. End to end, perfsuite
// lat_p50_ms medians (8 s runs) were, by threshold 0 (no routing) / 16 /
// 24 / 32 / 48: pair-LMN 67.3 / 60.5 / 58.7 / 61.3 / 74.4 ms (seeds
// 501–507; 0 and 48 on 501–503 only) and discover-fleet – / 43.3 / 41.9 /
// 48.0 / – ms (seeds 601–603). Those runs show that routing at 16–32 beats
// no routing and that 48 loses. They do not rank 16, 24 and 32: the three
// pair-LMN medians lie within the parent's own interquartile range on that
// workload (8.1 ms over 25 s runs), so 24 is a choice inside that band, not
// a measured optimum. Every cost here is at k = 4; the crossover at other
// Options.K values is unmeasured.
const smallWindow = 24

func newIncScorer(p series.Pair, k int, norm mi.Normalization) *incScorer {
	return &incScorer{pair: p, k: k, norm: norm, small: *newBatchScorer(p, k, norm), states: make(map[int]*incState)}
}

func (s *incScorer) both(w window.Window) (float64, float64, error) {
	return s.scoreNull(w, nil)
}

func (s *incScorer) finalScore(w window.Window) (float64, error) {
	_, norm, err := s.scoreNull(w, s.null)
	return norm, err
}

func (s *incScorer) scoreNull(w window.Window, null *nullModel) (float64, float64, error) {
	raw, err := s.estimate(w)
	if err != nil {
		return 0, 0, err
	}
	// As in batchScorer.scoreNull: no floor at 0, the climb needs the
	// ordering among near-zero scores.
	adj := raw - null.at(w.Size())
	return raw, s.normalize(adj, w), nil
}

// estimate returns the raw KSG estimate of w: from scratch for a window of
// at most smallWindow samples, otherwise from the estimator of w's delay
// moved to w. The route depends on the window alone, and both paths give
// the same bits (incremental ≡ batch).
func (s *incScorer) estimate(w window.Window) (float64, error) {
	if w.Size() <= smallWindow {
		raw, _, _, err := s.small.estimate(w)
		return raw, err
	}
	st, err := s.moveTo(w)
	if err != nil {
		return 0, err
	}
	return st.inc.MI()
}

func (s *incScorer) normalize(raw float64, w window.Window) float64 {
	switch s.norm {
	case mi.NormNone:
		return raw
	case mi.NormMaxEntropy:
		m := w.Size()
		if m < 2 {
			return 0
		}
		v := raw / math.Log(float64(m))
		if v > 1 {
			return 1
		}
		return v
	default:
		// Denominators that need the window contents fall back to slicing;
		// this costs O(m) but keeps all normalizations available.
		xs, ys, err := s.pair.DelaySlice(w.Start, w.End, w.Delay)
		if err != nil {
			return 0
		}
		return mi.Normalize(raw, xs, ys, s.norm)
	}
}

// moveTo returns the estimator for w's delay positioned at w, diffing from
// its previous window or rebuilding when no usable state exists.
func (s *incScorer) moveTo(w window.Window) (*incState, error) {
	s.tick++
	st := s.states[w.Delay]
	if st == nil {
		return s.rebuild(w)
	}
	st.lastUse = s.tick
	if w == st.cur {
		return st, nil
	}
	// Same delay: apply the index-range difference. Ids are X indices.
	old, next := st.cur, w
	if next.Start > old.End || next.End < old.Start {
		// Disjoint ranges: cheaper to rebuild.
		return s.rebuild(w)
	}
	// A large diff cascades more neighbourhood refreshes than a one-pass
	// bulk reload costs; rebuild past a third of the window.
	diff := abs(next.Start-old.Start) + abs(next.End-old.End)
	if limit := next.Size() / 3; diff > limit && diff > 8 {
		return s.rebuild(w)
	}
	x := s.pair.X.Values
	y := s.pair.Y.Values
	for i := old.Start; i < next.Start; i++ {
		st.inc.Remove(i)
	}
	for i := next.End + 1; i <= old.End; i++ {
		st.inc.Remove(i)
	}
	for i := next.Start; i < old.Start; i++ {
		st.inc.Insert(i, x[i], y[i+w.Delay])
	}
	for i := old.End + 1; i <= next.End; i++ {
		st.inc.Insert(i, x[i], y[i+w.Delay])
	}
	st.cur = w
	s.nInc++
	return st, nil
}

func (s *incScorer) rebuild(w window.Window) (*incState, error) {
	xs, ys, err := s.pair.DelaySlice(w.Start, w.End, w.Delay)
	if err != nil {
		return nil, err
	}
	// Points are keyed by their X index so same-delay moves can diff ranges.
	s.ids = s.ids[:0]
	for i := 0; i < w.Size(); i++ {
		s.ids = append(s.ids, w.Start+i)
	}
	// Free cache slots before taking an estimator, in the same order as the
	// original always-fresh path (evict LRU, then retire the replaced entry):
	// eviction order is observable through the event stream and counters, so
	// pooling must not perturb it.
	if len(s.states) >= maxIncStates {
		s.evictLRU()
	}
	if old := s.states[w.Delay]; old != nil {
		// Replaced in place (same delay, disjoint or large move): keep its
		// work on the books.
		s.retire(old)
	}
	var inc *mi.Incremental
	if n := len(s.pool); n > 0 {
		inc = s.pool[n-1]
		s.pool = s.pool[:n-1]
	} else if inc = s.shared.take(s.k); inc == nil {
		inc = mi.NewIncremental(s.k)
	}
	// A pooled estimator or a cache hit (Reconfigured to this scorer's k)
	// reloads bit-identically to a fresh one, warm allocations and all.
	inc.Reload(s.ids, xs, ys)
	st := &incState{inc: inc, cur: w, lastUse: s.tick}
	s.states[w.Delay] = st
	s.nRebuild++
	return st, nil
}

// retire folds a dropped estimator's op counters into the running totals and
// returns its estimator to the pool for the next rebuild to Reload.
func (s *incScorer) retire(st *incState) {
	ops := st.inc.Ops()
	s.retired.Inserts += ops.Inserts
	s.retired.Removes += ops.Removes
	s.retired.Refreshes += ops.Refreshes
	s.retired.Requeries += ops.Requeries
	s.pool = append(s.pool, st.inc)
}

// evictLRU drops the least recently used cached estimator. lastUse values
// are unique (moveTo advances the tick before stamping exactly one state),
// but the smallest-delay tie-break makes the choice provably independent of
// map iteration order rather than relying on that argument.
func (s *incScorer) evictLRU() {
	oldestDelay, oldestUse := 0, int(^uint(0)>>1)
	found := false
	//lint:allow nodeterm argmin with a total-order tie-break; the selected entry is the same for every iteration order
	for d, st := range s.states {
		if !found || st.lastUse < oldestUse || (st.lastUse == oldestUse && d < oldestDelay) {
			oldestDelay, oldestUse = d, st.lastUse
			found = true
		}
	}
	s.retire(s.states[oldestDelay])
	delete(s.states, oldestDelay)
}

// stats counts routed batch estimates and rebuilds as from-scratch work.
func (s *incScorer) stats() (int, int) { return s.small.nBatch + s.nRebuild, s.nInc }

// release drains every estimator — pooled and live — into the shared
// cross-search cache. Without a shared cache it is a no-op: the scorer is
// about to be garbage-collected with its pool.
func (s *incScorer) release() {
	if s.shared == nil {
		return
	}
	s.shared.put(s.pool...)
	s.pool = s.pool[:0]
	//lint:allow nodeterm drain order only permutes interchangeable estimators in the shared pool; the map ends empty either way
	for d, st := range s.states {
		s.shared.put(st.inc)
		delete(s.states, d)
	}
}

func (s *incScorer) counters() []counter {
	total := s.retired
	//lint:allow nodeterm integer-sum fold; addition commutes, so the totals are iteration-order independent
	for _, st := range s.states {
		ops := st.inc.Ops()
		total.Inserts += ops.Inserts
		total.Removes += ops.Removes
		total.Refreshes += ops.Refreshes
		total.Requeries += ops.Requeries
	}
	return []counter{
		{"mi.ksg_estimates", int64(s.small.est.Estimates())},
		{"mi.inc_inserts", int64(total.Inserts)},
		{"mi.inc_removes", int64(total.Removes)},
		{"mi.inc_refreshes", int64(total.Refreshes)},
		{"mi.inc_requeries", int64(total.Requeries)},
	}
}

// jitterPair returns the pair with deterministic uniform dither of amplitude
// jitter·std added to each series (see Options.Jitter); a non-positive
// jitter returns the pair unchanged.
func jitterPair(p series.Pair, jitter float64, seed int64) series.Pair {
	if jitter <= 0 {
		return p
	}
	//lint:allow seedflow fixed pre-idiom domain offset; committed goldens and EXPERIMENTS results pin this stream
	rng := rand.New(rand.NewSource(seed + 0xd17e))
	dither := func(s series.Series) series.Series {
		st := s.Stats()
		scale := jitter * st.Std
		if scale <= 0 {
			scale = jitter
		}
		out := s.Clone()
		for i := range out.Values {
			out.Values[i] += scale * (rng.Float64() - 0.5) * 2
		}
		return out
	}
	return series.Pair{X: dither(p.X), Y: dither(p.Y)}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
