package mi

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"tycos/internal/knn"
)

// Incremental maintains the KSG estimate of a point set under insertions and
// removals, implementing the efficient MI computation of Section 7 of the
// paper. Each point carries its influenced region (IR, Definition 7.1) — a
// square of half-width equal to its k-th-neighbour L∞ distance — and its
// influenced marginal regions (IMR, Definition 7.2) given by the
// per-dimension projections of that neighbourhood.
//
// When a point o is inserted or removed:
//
//   - every point p with o inside IR(p) gets a fresh k-NN search and fresh
//     marginal counts (Lemmas 3 and 4);
//   - every other point p with o inside IMR_x(p) or IMR_y(p) gets the
//     corresponding marginal count adjusted by ±1 (Lemmas 5 and 6);
//   - unaffected points keep their cached state.
//
// This turns the per-window cost of a δ-step LAHC move from a full
// re-estimation into work proportional to the few points whose
// neighbourhoods actually changed. Its estimate equals KSG.Estimate over
// the maintained samples in ascending-id order to the last bit; like
// Estimate, it needs finite samples.
type Incremental struct {
	k    int
	grid *knn.Grid
	xs   *knn.OrderedMultiset
	ys   *knn.OrderedMultiset

	// slab holds the point states: the state of id sits at slab[id−base],
	// with live marking occupied slots. Ids are time indices, so a window's
	// ids span little more than its size and the slab stays dense; place
	// re-bases or grows it when an id falls outside.
	slab []pointState
	base int

	// ids keeps the maintained ids sorted. MI() folds the per-point digamma
	// terms in this order: floating-point addition is not associative, so
	// the fold order must be a function of the point set alone for the
	// estimate — and hence entire search trajectories — to be reproducible.
	ids []int

	// scratch is reused across kNN refresh queries to avoid allocation in
	// the hottest loop.
	scratch []knn.Neighbor
	// refreshBuf is reused for the per-update refresh candidate list.
	refreshBuf []int
	// tree and pts serve the bulk recompute (rebuildAll): the live points in
	// ascending-id order, indexed by the batch estimator's k-d tree.
	tree *knn.KDTree
	pts  []knn.Point

	ops       IncrementalOps
	estimates int
}

// IncrementalOps counts the point-level work an Incremental has performed.
// Refreshes — one k-NN query plus two marginal interval counts each — are
// the cost driver of the Lemma 3–6 update cascade, so the ratio
// Refreshes/(Inserts+Removes) is the number to watch when profiling the
// incremental scorer.
type IncrementalOps struct {
	// Inserts and Removes count committed point insertions and removals.
	Inserts, Removes int
	// Refreshes counts per-point state recomputations (cascaded refreshes,
	// the updated point's own computation, and full rebuilds alike).
	Refreshes int
}

// Ops returns the work counters accumulated since construction.
func (inc *Incremental) Ops() IncrementalOps { return inc.ops }

type pointState struct {
	p knn.Point
	// ksgState is the point's IR and IMR half-widths and its raw marginal
	// counts n_x, n_y, shared with the batch estimator. The counts are kept
	// unfloored so the classify cascade's ±1 bumps stay equal to a fresh
	// count; psiCounts floors them when the digammas are formed.
	ksgState
	live bool
}

// NewIncremental returns an empty incremental estimator with neighbour count
// k (values below 1 become DefaultK). cellSize tunes the underlying grid
// index; pass 0 to use a default of 1.0 (callers that know their data scale
// should derive a size with knn.NewGridFor and pass its cell hint through
// NewIncrementalFrom instead).
func NewIncremental(k int, cellSize float64) *Incremental {
	if k < 1 {
		k = DefaultK
	}
	if cellSize <= 0 {
		cellSize = 1
	}
	return &Incremental{
		k:    k,
		grid: knn.NewGrid(cellSize),
		xs:   knn.NewOrderedMultiset(nil),
		ys:   knn.NewOrderedMultiset(nil),
	}
}

// NewIncrementalFrom builds an incremental estimator pre-loaded with the
// paired samples (x[i], y[i]) under ids 0..len(x)−1, with a grid cell size
// derived from the data.
func NewIncrementalFrom(x, y []float64, k int) (*Incremental, error) {
	if err := checkPair(x, y); err != nil {
		return nil, err
	}
	pts := make([]knn.Point, len(x))
	for i := range pts {
		pts[i] = knn.Point{X: x[i], Y: y[i]}
	}
	if k < 1 {
		k = DefaultK
	}
	probe := knn.NewGridFor(pts, k)
	// Recover the chosen cell size by inserting into a fresh grid of the
	// same tuning: NewGridFor only depends on the sample, so reuse it.
	inc := &Incremental{
		k:    k,
		grid: probe,
		xs:   knn.NewOrderedMultiset(nil),
		ys:   knn.NewOrderedMultiset(nil),
	}
	for i, p := range pts {
		inc.Insert(i, p.X, p.Y)
	}
	return inc, nil
}

// NewIncrementalBulk returns an estimator pre-loaded with the given samples
// under the given ids, computing every point's state in one pass instead of
// cascading per-insert updates — the right way to (re)position an estimator
// at a whole new window.
func NewIncrementalBulk(k int, cellSize float64, ids []int, xs, ys []float64) *Incremental {
	inc := NewIncremental(k, cellSize)
	inc.Reload(ids, xs, ys)
	return inc
}

// Reload repositions the estimator at a whole new window in place,
// discarding all maintained points and bulk-loading the given samples
// exactly as NewIncrementalBulk would — same one-pass state computation,
// same counter semantics (Ops and Estimates restart from zero, as on a
// fresh estimator). Unlike a fresh build it keeps the grid, the marginal
// multisets, the state slab, the id list and the k-d tree, so a warm
// estimator reloads a comparable window without heap allocation. The ids
// need not be sorted or contiguous. The grid cell size is retained.
func (inc *Incremental) Reload(ids []int, xs, ys []float64) {
	inc.grid.Reset(inc.grid.Cell())
	inc.clearStates()
	inc.ops = IncrementalOps{}
	inc.estimates = 0
	if len(ids) > 0 {
		lo, hi := slices.Min(ids), slices.Max(ids)
		if need := hi - lo + 1; 2*need > len(inc.slab) {
			inc.slab = make([]pointState, max(2*need, minSlab))
		}
		inc.base = lo
	}
	for i, id := range ids {
		st := &inc.slab[id-inc.base]
		if st.live {
			panic(fmt.Sprintf("mi: duplicate insert of id %d", id))
		}
		o := knn.Point{X: xs[i], Y: ys[i]}
		*st = pointState{p: o, live: true}
		inc.ops.Inserts++
		inc.grid.Insert(id, o)
		inc.ids = append(inc.ids, id)
	}
	// Bulk Reset sorts once; the result is identical to element-wise Insert.
	inc.xs.Reset(xs)
	inc.ys.Reset(ys)
	slices.Sort(inc.ids)
	inc.rebuildAll()
}

// Reconfigure empties the estimator and re-tunes it to a new neighbour count
// and grid cell size, exactly as NewIncremental(k, cellSize) would — but
// reusing the grid, the multisets, the scratch buffers and the state slab.
// It is the cross-window counterpart of Reload: Reload repositions a warm
// estimator within one pair (same cell), Reconfigure retargets it at a
// different pair whose value span calls for a different cell. Counters
// restart from zero, as on a fresh estimator.
func (inc *Incremental) Reconfigure(k int, cellSize float64) {
	if k < 1 {
		k = DefaultK
	}
	if cellSize <= 0 {
		cellSize = 1
	}
	inc.k = k
	inc.grid.Reset(cellSize)
	inc.clearStates()
	inc.xs.Reset(nil)
	inc.ys.Reset(nil)
	inc.ops = IncrementalOps{}
	inc.estimates = 0
}

// minSlab is the smallest state slab allocated.
const minSlab = 64

// clearStates frees every maintained point's slab slot and empties the id
// list.
func (inc *Incremental) clearStates() {
	for _, id := range inc.ids {
		inc.slab[id-inc.base].live = false
	}
	inc.ids = inc.ids[:0]
}

// state returns the state of id, or nil when id is not maintained.
func (inc *Incremental) state(id int) *pointState {
	i := id - inc.base
	if i < 0 || i >= len(inc.slab) || !inc.slab[i].live {
		return nil
	}
	return &inc.slab[i]
}

// place returns the slab slot of a new id, re-basing the slab first when id
// falls outside it. The slot pointer stays valid until the next place.
func (inc *Incremental) place(id int) *pointState {
	if i := id - inc.base; i < 0 || i >= len(inc.slab) {
		inc.rebase(id)
	}
	return &inc.slab[id-inc.base]
}

// rebase moves the live states so the slab covers id too. The slab is grown
// to twice the needed span whenever less than half of it would be free, and
// its free room is put on the side id arrived from, so a window sliding
// steadily one way re-bases once per half slab of travel and the copying
// amortizes to O(1) per insert.
func (inc *Incremental) rebase(id int) {
	n := len(inc.ids)
	if n == 0 {
		if len(inc.slab) == 0 {
			inc.slab = make([]pointState, minSlab)
		}
		inc.base = id
		return
	}
	lo, hi := inc.ids[0], inc.ids[n-1]
	run := inc.slab[lo-inc.base : hi-inc.base+1]
	need := max(hi, id) - min(lo, id) + 1
	dst := inc.slab
	if 2*need > len(dst) {
		dst = make([]pointState, max(2*need, minSlab))
	}
	base := min(lo, id)
	if id < lo {
		base = hi - len(dst) + 1
	}
	off := lo - base
	copy(dst[off:off+len(run)], run)
	if &dst[0] == &inc.slab[0] {
		clear(dst[:off])
		clear(dst[off+len(run):])
	}
	inc.slab, inc.base = dst, base
}

// insertID adds id to the sorted id list.
func (inc *Incremental) insertID(id int) {
	i := sort.SearchInts(inc.ids, id)
	inc.ids = append(inc.ids, 0)
	copy(inc.ids[i+1:], inc.ids[i:])
	inc.ids[i] = id
}

// removeID drops id from the sorted id list.
func (inc *Incremental) removeID(id int) {
	i := sort.SearchInts(inc.ids, id)
	if i < len(inc.ids) && inc.ids[i] == id {
		inc.ids = append(inc.ids[:i], inc.ids[i+1:]...)
	}
}

// Len returns the number of points currently maintained.
func (inc *Incremental) Len() int { return len(inc.ids) }

// K returns the neighbour count.
func (inc *Incremental) K() int { return inc.k }

// Insert adds the sample (x, y) under id. Inserting an existing id is an
// error (remove it first); ids are typically the time index of the sample.
func (inc *Incremental) Insert(id int, x, y float64) {
	if inc.state(id) != nil {
		panic(fmt.Sprintf("mi: duplicate insert of id %d", id))
	}
	o := knn.Point{X: x, Y: y}
	inc.ops.Inserts++
	// With k or fewer pre-existing points, no cached kNN state is
	// meaningful; commit and rebuild.
	small := len(inc.ids) <= inc.k

	var refresh []int
	if !small {
		// Phase 1: classify the points the insertion influences (Lemmas 3
		// and 5). Points whose IR contains o need a full refresh once o
		// lands in the structures; points whose IMRs contain o only need
		// count bumps. The candidates are found with grid queries bounded
		// by the running radius maxima instead of scanning every point.
		refresh = inc.classify(o, +1)
	}

	// Phase 2: commit o to the structures.
	inc.grid.Insert(id, o)
	inc.xs.Insert(x)
	inc.ys.Insert(y)
	st := inc.place(id)
	*st = pointState{p: o, live: true}
	inc.insertID(id)

	if small {
		inc.rebuildAll()
		return
	}
	// Phase 3: refresh the influenced points and compute o's own state.
	for _, pid := range refresh {
		inc.refreshPoint(pid)
	}
	inc.computePoint(id, st)
}

// Remove deletes the sample under id, reporting whether it existed.
func (inc *Incremental) Remove(id int) bool {
	st := inc.state(id)
	if st == nil {
		return false
	}
	o := st.p
	inc.ops.Removes++
	valid := len(inc.ids) > inc.k // pre-removal cached state is meaningful
	inc.grid.Remove(id, o)
	inc.xs.Remove(o.X)
	inc.ys.Remove(o.Y)
	st.live = false
	inc.removeID(id)

	if !valid || len(inc.ids) <= inc.k {
		inc.rebuildAll()
		return true
	}
	for _, pid := range inc.classify(o, -1) {
		inc.refreshPoint(pid)
	}
	return true
}

// classify applies the influence analysis of Lemmas 3–6 for inserting
// (sign +1) or removing (sign −1) the point o: IMR-only points get their
// marginal counts adjusted in place, and the ids whose IR contains o — whose
// kNN state must be recomputed — are returned. A linear pass over the point
// states is used: the per-point test is a handful of comparisons, and
// indexed candidate queries (square/strip grid scans bounded by radius
// maxima) were measured slower here because edge points inflate the radius
// bounds until the candidate sets approach the whole window anyway.
func (inc *Incremental) classify(o knn.Point, sign int) []int {
	refresh := inc.refreshBuf[:0]
	for _, pid := range inc.ids {
		st := &inc.slab[pid-inc.base]
		if knn.Chebyshev(o, st.p) <= st.d {
			refresh = append(refresh, pid)
			continue
		}
		// The counts track other points entering/leaving the IMR intervals
		// (o ≠ p here, so the excluding-self convention is unaffected),
		// tested with CountWithin's predicate p−d ≤ u ≤ p+d: |u−p| ≤ d
		// disagrees with it at rounding boundaries, and the count would
		// drift from a fresh one. The lower bound never exceeds the upper,
		// so o is inside exactly when both bounds agree on it — one branch,
		// not two.
		if (st.p.X-st.dx <= o.X) == (o.X <= st.p.X+st.dx) {
			st.nx += sign
		}
		if (st.p.Y-st.dy <= o.Y) == (o.Y <= st.p.Y+st.dy) {
			st.ny += sign
		}
	}
	inc.refreshBuf = refresh
	return refresh
}

// refreshPoint recomputes the cached state of an existing point after its
// neighbourhood changed.
func (inc *Incremental) refreshPoint(id int) {
	inc.computePoint(id, &inc.slab[id-inc.base])
}

// computePoint fills st with a fresh grid k-NN search and marginal counts.
func (inc *Incremental) computePoint(id int, st *pointState) {
	inc.settle(st, inc.grid.KNearestInto(st.p, inc.k, id, inc.scratch))
}

// settle stores the neighbourhood radii of st's k nearest neighbours nn
// (indexed by id) and its marginal counts, counting one refresh. nn's
// backing array becomes the next query's scratch.
func (inc *Incremental) settle(st *pointState, nn []knn.Neighbor) {
	inc.scratch = nn[:0]
	var dx, dy, d float64
	for _, nb := range nn {
		q := inc.slab[nb.Index-inc.base].p
		if v := math.Abs(q.X - st.p.X); v > dx {
			dx = v
		}
		if v := math.Abs(q.Y - st.p.Y); v > dy {
			dy = v
		}
		if nb.Dist > d {
			d = nb.Dist
		}
	}
	inc.ops.Refreshes++
	st.dx, st.dy, st.d = dx, dy, d
	// The interval counts include the point's own coordinate; subtracting it
	// yields Kraskov's n_x, n_y (counts excluding self, as in the batch
	// estimator).
	st.nx = inc.xs.CountWithin(st.p.X, dx) - 1
	st.ny = inc.ys.CountWithin(st.p.Y, dy) - 1
}

// rebuildAll recomputes every point's state in one bulk pass. Called by
// Reload and when the population crosses the k threshold where incremental
// state is undefined. The live points are gathered in ascending-id order.
// Up to allPairsMax of them go through the all-pairs kernel, more are
// indexed by a k-d tree and each is queried once. Both break distance ties
// on the local index, and ascending-id order makes that agree with the
// grid's id tie-break, so they select the same k-best set and every state
// is bit-identical to a computePoint refresh.
func (inc *Incremental) rebuildAll() {
	m := len(inc.ids)
	if m <= inc.k {
		return
	}
	if m <= allPairsMax {
		var (
			xs, ys [allPairsMax]float64
			a      allPairs
		)
		for j, id := range inc.ids {
			p := inc.slab[id-inc.base].p
			xs[j], ys[j] = p.X, p.Y
		}
		for j, id := range inc.ids {
			inc.slab[id-inc.base].ksgState = a.point(xs[:m], ys[:m], inc.k, j)
		}
		inc.ops.Refreshes += m
		return
	}
	inc.pts = inc.pts[:0]
	for _, id := range inc.ids {
		inc.pts = append(inc.pts, inc.slab[id-inc.base].p)
	}
	if inc.tree == nil {
		inc.tree = knn.NewKDTree(nil)
	}
	inc.tree.Reset(inc.pts)
	for j, id := range inc.ids {
		st := &inc.slab[id-inc.base]
		nn := inc.tree.KNearestInto(st.p, inc.k, j, inc.scratch)
		for i := range nn {
			nn[i].Index = inc.ids[nn[i].Index]
		}
		inc.settle(st, nn)
	}
}

// MI returns the current KSG estimate (Eq. 2) over the maintained points,
// or an error when fewer than k+1 points are present. The digamma terms are
// folded in sorted-id order — ψ(n) is a table lookup, so the pass is a cheap
// price for estimates (and search trajectories) that are bit-for-bit
// reproducible no matter in which order the influence updates ran.
func (inc *Incremental) MI() (float64, error) {
	m := len(inc.ids)
	if m <= inc.k {
		return 0, fmt.Errorf("%w: m=%d, k=%d", ErrTooFewSamples, m, inc.k)
	}
	var digammaSum float64
	for _, id := range inc.ids {
		st := &inc.slab[id-inc.base]
		digammaSum += psiCounts(st.nx, st.ny)
	}
	inc.estimates++
	return ksgMI(inc.k, m, digammaSum), nil
}

// Estimates returns the number of successful MI evaluations since
// construction or the last Reload — the same success-only semantics as
// KSG.Estimates (calls that return ErrTooFewSamples are not counted).
func (inc *Incremental) Estimates() int { return inc.estimates }
