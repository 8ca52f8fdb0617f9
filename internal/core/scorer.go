package core

import (
	"math/rand"

	"tycos/internal/mi"
	"tycos/internal/obs"
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
	// plan tells the scorer the neighbourhood the climb is about to score:
	// bit i of skip is set for each window nbs[i] that will not reach the
	// scorer (the score memo answers it). The scorer may share work among
	// the windows that will. plan is advisory: every window scores to the
	// same bits whether or not plan was called, and whatever it was told.
	plan(nbs []window.Window, skip uint32)
	// stats exposes the work counters accumulated so far.
	stats() (batch, incremental int)
	// counts exposes the estimator-level work totals beneath stats() (KSG
	// estimations, incremental point operations) for the observability
	// layer. Called once per segment of an observed search, at its end.
	counts() scorerCounts
}

// scorerCounts are a scorer's estimator-level work totals. The merge sums
// them over a search's segments and emits them as the mi.* counters.
type scorerCounts struct {
	estimates int               // every KSG estimate, τ-planes' included
	planes    int               // the estimates τ-planes served
	hits      int               // the estimates a score table served instead
	inc       mi.IncrementalOps // the incremental estimators' point work
}

// add adds another segment's totals to c.
func (c *scorerCounts) add(o scorerCounts) {
	c.estimates += o.estimates
	c.planes += o.planes
	c.hits += o.hits
	c.inc.Add(o.inc)
}

// emit publishes the totals as counters in a fixed order. Only a search
// bound to a score table reports its hits, and only an incremental
// variant's scorer moves estimators, so only it reports their work.
func (c *scorerCounts) emit(sink obs.Sink, incremental, bound bool) {
	sink.Count("mi.ksg_estimates", int64(c.estimates))
	sink.Count("mi.plane_estimates", int64(c.planes))
	if bound {
		sink.Count("score_table_hits", int64(c.hits))
	}
	if !incremental {
		return
	}
	sink.Count("mi.inc_inserts", int64(c.inc.Inserts))
	sink.Count("mi.inc_removes", int64(c.inc.Removes))
	sink.Count("mi.inc_refreshes", int64(c.inc.Refreshes))
	sink.Count("mi.inc_requeries", int64(c.inc.Requeries))
}

// batchScorer re-estimates every window independently, from the score
// table or the τ-planes of the current neighbourhood where it can (see
// plan).
type batchScorer struct {
	pair   series.Pair
	est    mi.KSG
	norm   mi.Normalization
	null   *nullModel
	nBatch int

	// planes is the segment's τ-plane scratch, nil when planes are
	// bypassed; the first live of them serve the current neighbourhood.
	// nPlane counts the estimates they served, which nBatch also counts.
	planes []tauPlane
	live   int
	nPlane int

	// table is the search's score table, the zero handle when it binds none
	// (see scoretable.go). probes are the current neighbourhood's lookups,
	// the first nProbe of them, in plan order; next is the probe the next
	// window is expected to take (see probe). lone is the last lookup of a
	// window no plan covered. nHit counts the estimates the table served,
	// which nBatch also counts.
	table  TableHandle
	probes [maxProbes]tableProbe
	nProbe int
	next   int
	lone   tableProbe
	nHit   int
}

// maxPlanes is the number of τ-planes a neighbourhood can have: its windows
// take three delays.
const maxPlanes = 3

// tauPlane is one delay's τ-plane of a neighbourhood: a plane estimator
// over the union [start, end] of the windows at that delay that reach the
// scorer, with their intersection as the core.
type tauPlane struct {
	est        mi.Plane
	delay      int
	start, end int
}

// newBatchScorer returns a batch scorer over p with no null model and no
// τ-planes. It is a value, its estimator too, so that a segment can set one
// up in its scratch without an allocation.
func newBatchScorer(p series.Pair, k int, norm mi.Normalization) batchScorer {
	sc := batchScorer{pair: p, norm: norm}
	sc.est.Renew(k, mi.BackendKDTree)
	return sc
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

// estimate returns the raw KSG estimate of w, with the samples it was
// estimated on: from the score table, from a τ-plane that holds w, or from
// scratch. All three give the same bits (mi.Plane's contract, and the
// table holds only such estimates), so the path does not show. A fresh
// estimate enters the table.
func (s *batchScorer) estimate(w window.Window) (raw float64, xs, ys []float64, err error) {
	xs, ys, err = series.DelaySliceOf(&s.pair, w.Start, w.End, w.Delay)
	if err != nil {
		return 0, nil, nil, err
	}
	p := s.probe(w)
	if p != nil && p.hit {
		s.nHit++
		s.nBatch++
		return p.raw, xs, ys, nil
	}
	raw, ok := s.planeEstimate(w)
	if ok {
		s.nPlane++
	} else if raw, err = s.est.Estimate(xs, ys); err != nil {
		return 0, nil, nil, err
	}
	if p != nil {
		s.table.t.store(s.table, p.key, raw)
		p.raw, p.hit = raw, true
	}
	s.nBatch++
	return raw, xs, ys, nil
}

// probe returns w's table lookup: the one plan made for the neighbourhood,
// or else a lookup made now. It returns nil when the search binds no table
// or the key cannot hold w. The climb scores a neighbourhood in plan order,
// so w is usually the probe after the last one taken; any other window
// (one the memo evicted after plan, or a window scored outside a
// neighbourhood) is found by a scan.
func (s *batchScorer) probe(w window.Window) *tableProbe {
	if s.table.t == nil {
		return nil
	}
	if s.next < s.nProbe && s.probes[s.next].w == w {
		s.next++
		return &s.probes[s.next-1]
	}
	for i := range s.probes[:s.nProbe] {
		if s.probes[i].w == w {
			return &s.probes[i]
		}
	}
	p, ok := s.lookup(w)
	if !ok {
		return nil
	}
	s.lone = p
	return &s.lone
}

// lookup looks w up in the table, or reports false when the key cannot
// hold w.
func (s *batchScorer) lookup(w window.Window) (tableProbe, bool) {
	key, ok := tableKey(s.table.id, w)
	if !ok {
		return tableProbe{}, false
	}
	raw, hit := s.table.t.lookup(s.table, key)
	return tableProbe{w: w, key: key, raw: raw, hit: hit}, true
}

// probeAll looks up in the table every window of the neighbourhood that
// will reach the scorer, keeping the answers for estimate, and returns skip
// with the hits added: they need no τ-plane.
func (s *batchScorer) probeAll(nbs []window.Window, skip uint32) uint32 {
	s.nProbe, s.next = 0, 0
	if s.table.t == nil {
		return skip
	}
	for i, w := range nbs {
		if skip&(1<<i) != 0 {
			continue
		}
		p, ok := s.lookup(w)
		if !ok {
			continue
		}
		s.probes[s.nProbe] = p
		s.nProbe++
		if p.hit {
			skip |= 1 << i
		}
	}
	return skip
}

// planeEstimate estimates w from the live τ-plane of its delay, if that
// plane's union holds w and w contains its core.
func (s *batchScorer) planeEstimate(w window.Window) (float64, bool) {
	for i := range s.planes[:s.live] {
		pl := &s.planes[i]
		if pl.delay == w.Delay && pl.start <= w.Start && w.End <= pl.end {
			return pl.est.Estimate(w.Start-pl.start, w.End+1-pl.start)
		}
	}
	return 0, false
}

// plan looks the neighbourhood's windows up in the score table (see
// probeAll), then builds a τ-plane for each delay at which at least two of
// the windows the table did not answer reach the scorer: the union of those
// windows, sliced once, with their intersection as the core. Every window of
// a neighbourhood moves each end of the same range by −Δ, 0 or +Δ, so the
// windows of one delay share all but at most 4Δ points. A delay whose
// windows' edges (the union less the core) outnumber their core gets no
// plane: there a plane costs about what the windows cost one by one. Over
// BenchmarkPlaneEstimate's shapes at m = 8–32 and Δ = 1–5, planes ran at
// 0.88–1.21× of the per-window speed on such shapes, and at 1.01–3.26× on
// the rest (see DESIGN). A window no plane serves (that case, a union
// above the all-pairs bound, a core of k points or fewer) is estimated
// from scratch as before.
func (s *batchScorer) plan(nbs []window.Window, skip uint32) {
	skip = s.probeAll(nbs, skip)
	s.live = 0
	for i := 0; i < len(nbs) && s.live < len(s.planes); {
		delay := nbs[i].Delay
		var union, core window.Window
		n := 0
		for ; i < len(nbs) && nbs[i].Delay == delay; i++ {
			if skip&(1<<i) != 0 {
				continue
			}
			w := nbs[i]
			if n == 0 {
				union, core = w, w
			} else {
				union.Start, union.End = min(union.Start, w.Start), max(union.End, w.End)
				core.Start, core.End = max(core.Start, w.Start), min(core.End, w.End)
			}
			n++
		}
		if n < 2 || union.Size()-core.Size() > core.Size() {
			continue
		}
		xs, ys, err := series.DelaySliceOf(&s.pair, union.Start, union.End, delay)
		if err != nil {
			continue
		}
		pl := &s.planes[s.live]
		if pl.est.Reset(s.est.K(), xs, ys, core.Start-union.Start, core.End+1-union.Start) {
			pl.delay, pl.start, pl.end = delay, union.Start, union.End
			s.live++
		}
	}
}

func (s *batchScorer) stats() (int, int) { return s.nBatch, 0 }

func (s *batchScorer) counts() scorerCounts {
	return scorerCounts{estimates: s.est.Estimates() + s.nPlane, planes: s.nPlane, hits: s.nHit}
}

// incScorer keeps incremental KSG estimators positioned at recently scored
// windows, one per time delay, and diffs each scored window against the
// estimator of its delay. Same-delay moves are applied as edge
// insertions/removals; a window at a delay with no cached estimator pays one
// rebuild, after which that τ-plane is explored incrementally. The small
// per-delay cache is what makes the LAHC neighbourhood — which mixes three
// delays per exploration — profitable to evaluate incrementally; with a
// single estimator every delay change would force a rebuild and TYCOS_LM
// would run slower than TYCOS_L. Windows the all-pairs kernel serves skip
// the estimators and take a batch estimate (see estimate).
type incScorer struct {
	pair series.Pair
	k    int
	norm mi.Normalization
	null *nullModel

	// small estimates the windows routed to batch and counts them; it never
	// touches the cached estimators or the LRU clock.
	small batchScorer

	states [maxIncStates]incState // per-delay estimators; a nil inc is a free slot
	tick   int                    // LRU clock

	nRebuild int // estimator rebuilds
	nInc     int // incremental moves

	// retired accumulates the op counters an estimator gathered before a
	// rebuild reloaded it (Reload zeroes them), so counts() reports the
	// whole segment's point-level work, not just the current positions'.
	retired mi.IncrementalOps

	ids []int // reusable id scratch for rebuilds
}

// incState is one cached estimator and the window it is positioned at; the
// window's delay is the delay the estimator serves.
type incState struct {
	inc     *mi.Incremental
	cur     window.Window
	lastUse int
}

// maxIncStates bounds the per-delay estimator cache. A neighbourhood touches
// three delays; a few extra slots cover the climb's recent τ history.
const maxIncStates = 6

// newIncScorer returns an incremental scorer over p with no null model, no
// cached estimators and no τ-planes, as a value like newBatchScorer.
func newIncScorer(p series.Pair, k int, norm mi.Normalization) incScorer {
	return incScorer{pair: p, k: k, norm: norm, small: newBatchScorer(p, k, norm)}
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

// estimate returns the raw KSG estimate of w. A window the all-pairs kernel
// serves takes a batch estimate (a τ-plane or the kernel), which builds no
// index, and leaves the cached estimators alone. A larger window, which a
// batch estimate would index in a k-d tree, takes the estimator of w's delay
// moved to w. A lower threshold loses end to end although a move is cheaper
// from about 64 samples on a climb held at one size: climbs that cross it
// reload the estimators their routed windows left behind (DESIGN, "Scoring
// layer"). The route depends on the window alone, and both paths give the
// same bits (incremental ≡ batch).
func (s *incScorer) estimate(w window.Window) (float64, error) {
	if mi.KernelServes(w.Size()) {
		raw, _, _, err := s.small.estimate(w)
		return raw, err
	}
	st, err := s.moveTo(w)
	if err != nil {
		return 0, err
	}
	return st.inc.MI()
}

// plan passes the neighbourhood's routed windows, those the all-pairs kernel
// serves, to the batch scorer that estimates them.
func (s *incScorer) plan(nbs []window.Window, skip uint32) {
	for i, w := range nbs {
		if !mi.KernelServes(w.Size()) {
			skip |= 1 << i
		}
	}
	s.small.plan(nbs, skip)
}

func (s *incScorer) normalize(raw float64, w window.Window) float64 {
	switch s.norm {
	case mi.NormNone:
		return raw
	case mi.NormMaxEntropy:
		return mi.MaxEntropy(raw, w.Size())
	default:
		// Denominators that need the window contents fall back to slicing;
		// this costs O(m) but keeps all normalizations available.
		xs, ys, err := series.DelaySliceOf(&s.pair, w.Start, w.End, w.Delay)
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
	st := s.state(w.Delay)
	if st == nil {
		return s.rebuild(w, s.freeSlot())
	}
	st.lastUse = s.tick
	if w == st.cur {
		return st, nil
	}
	// Same delay: apply the index-range difference. Ids are X indices.
	old, next := st.cur, w
	if next.Start > old.End || next.End < old.Start {
		// Disjoint ranges: cheaper to rebuild.
		return s.rebuild(w, st)
	}
	// A large diff cascades more neighbourhood refreshes than a one-pass
	// bulk reload costs; rebuild past a third of the window.
	diff := abs(next.Start-old.Start) + abs(next.End-old.End)
	if limit := next.Size() / 3; diff > limit && diff > 8 {
		return s.rebuild(w, st)
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

// state returns the cached estimator of the delay, or nil.
func (s *incScorer) state(delay int) *incState {
	for i := range s.states {
		if st := &s.states[i]; st.inc != nil && st.cur.Delay == delay {
			return st
		}
	}
	return nil
}

// freeSlot returns an empty cache slot, or else the least recently used
// one. lastUse values are unique: moveTo advances the tick before stamping
// exactly one state.
func (s *incScorer) freeSlot() *incState {
	lru := &s.states[0]
	for i := range s.states {
		st := &s.states[i]
		if st.inc == nil {
			return st
		}
		if st.lastUse < lru.lastUse {
			lru = st
		}
	}
	return lru
}

// rebuild positions slot's estimator at w with one bulk Reload, or a new
// estimator when the slot is empty. A reloaded estimator keeps its multiset,
// point-state and list allocations and gives the bits of a fresh one; its
// op counters are retired first, so its work stays on the books.
func (s *incScorer) rebuild(w window.Window, slot *incState) (*incState, error) {
	xs, ys, err := series.DelaySliceOf(&s.pair, w.Start, w.End, w.Delay)
	if err != nil {
		return nil, err
	}
	// Points are keyed by their X index so same-delay moves can diff ranges.
	s.ids = s.ids[:0]
	for i := 0; i < w.Size(); i++ {
		s.ids = append(s.ids, w.Start+i)
	}
	inc := slot.inc
	if inc == nil {
		inc = mi.NewIncremental(s.k)
	} else {
		s.retired.Add(inc.Ops())
	}
	inc.Reload(s.ids, xs, ys)
	*slot = incState{inc: inc, cur: w, lastUse: s.tick}
	s.nRebuild++
	return slot, nil
}

// stats counts routed batch estimates and rebuilds as from-scratch work.
func (s *incScorer) stats() (int, int) { return s.small.nBatch + s.nRebuild, s.nInc }

func (s *incScorer) counts() scorerCounts {
	c := s.small.counts()
	c.inc = s.retired
	for i := range s.states {
		if st := &s.states[i]; st.inc != nil {
			c.inc.Add(st.inc.Ops())
		}
	}
	return c
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
