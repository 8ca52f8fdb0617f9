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
//   - every point p with o inside IR(p) gets its k nearest neighbours and
//     fresh marginal counts (Lemmas 3 and 4);
//   - every other point p with o inside IMR_x(p) or IMR_y(p) gets the
//     corresponding marginal count adjusted by ±1 (Lemmas 5 and 6);
//   - unaffected points keep their cached state.
//
// No edit queries an index for those neighbours. Every point keeps a
// neighbour list (see reserve) that the one linear pass over the points an
// edit makes anyway keeps exact, so an IR refresh reads its k nearest
// neighbours off the list.
//
// This turns the per-window cost of a δ-step LAHC move from a full
// re-estimation into work proportional to the few points whose
// neighbourhoods actually changed. Its estimate equals KSG.Estimate over
// the maintained samples in ascending-id order to the last bit. Like
// Estimate, it needs finite samples; ids must fit in an int32.
type Incremental struct {
	k  int
	xs *knn.OrderedMultiset
	ys *knn.OrderedMultiset

	// slab holds the point states: the state of id sits at slab[id−base],
	// with live marking occupied slots. Ids are time indices, so a window's
	// ids span little more than its size and the slab stays dense; place
	// re-bases or grows it when an id falls outside.
	slab []pointState
	// nbrs holds the neighbour lists, parallel to slab: the list of the
	// point in slab[i] is nbrs[i·w : i·w+nl], w = k+reserve, as ids in
	// ascending (distance, id) order.
	nbrs []int32
	base int

	// ids keeps the maintained ids sorted. MI() folds the per-point digamma
	// terms in this order: floating-point addition is not associative, so
	// the fold order must be a function of the point set alone for the
	// estimate — and hence entire search trajectories — to be reproducible.
	ids []int

	// net holds the distance patterns of a list being built by a scan.
	net []uint64
	// tree, pts and scratch serve the bulk recompute of windows above
	// allPairsMax (rebuildAll): the live points in ascending-id order,
	// indexed by the batch estimator's k-d tree.
	tree    *knn.KDTree
	pts     []knn.Point
	scratch []knn.Neighbor

	ops       IncrementalOps
	estimates int
}

// reserve is the number of neighbours a list keeps beyond the k nearest, so
// that a removal rarely empties a list below k and forces a scan of the live
// points to refill it. Measured over four searches shaped like perfsuite's
// pair-LMN (k = 4), 261 461 state updates followed a removal that took out
// one of a point's k nearest; with lists of k, k+1, k+2 and k+4 entries,
// 261 461, 84 920, 31 343 and 5 432 (2.1 %) of them needed that scan.
const reserve = 4

// IncrementalOps counts the point-level work an Incremental has performed.
// Refreshes — one state recomputation with two marginal interval counts
// each — are the cost driver of the Lemma 3–6 update cascade, so the ratio
// Refreshes/(Inserts+Removes) is the number to watch when profiling the
// incremental scorer.
type IncrementalOps struct {
	// Inserts and Removes count committed point insertions and removals.
	Inserts, Removes int
	// Refreshes counts per-point state recomputations (cascaded refreshes,
	// the updated point's own computation, and full rebuilds alike).
	Refreshes int
	// Requeries counts the neighbour lists a removal left shorter than k,
	// each refilled by a scan of the live points.
	Requeries int
}

// Add adds another estimator's counters to o.
func (o *IncrementalOps) Add(p IncrementalOps) {
	o.Inserts += p.Inserts
	o.Removes += p.Removes
	o.Refreshes += p.Refreshes
	o.Requeries += p.Requeries
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
	// far is the distance pattern of the list's last entry: with that
	// entry's id it bounds the list under the (distance, id) order.
	far  uint64
	nl   int32 // the list's length
	live bool
}

// NewIncremental returns an empty incremental estimator with neighbour count
// k (values below 1 become DefaultK).
func NewIncremental(k int) *Incremental {
	inc := &Incremental{
		xs: knn.NewOrderedMultiset(nil),
		ys: knn.NewOrderedMultiset(nil),
	}
	inc.Reconfigure(k)
	return inc
}

// NewIncrementalFrom builds an incremental estimator pre-loaded with the
// paired samples (x[i], y[i]) under ids 0..len(x)−1, inserting them one by
// one. Like KSG.Estimate it rejects non-finite samples with an error.
func NewIncrementalFrom(x, y []float64, k int) (*Incremental, error) {
	if err := checkPair(x, y); err != nil {
		return nil, err
	}
	if err := checkFinite(x, y); err != nil {
		return nil, err
	}
	inc := NewIncremental(k)
	for i := range x {
		inc.Insert(i, x[i], y[i])
	}
	return inc, nil
}

// NewIncrementalBulk returns an estimator pre-loaded with the given samples
// under the given ids, computing every point's state in one pass instead of
// cascading per-insert updates — the right way to (re)position an estimator
// at a whole new window.
//
// Deprecated: cellSize is ignored; no index needs a cell size any more. Use
// NewIncremental and Reload.
func NewIncrementalBulk(k int, cellSize float64, ids []int, xs, ys []float64) *Incremental {
	inc := NewIncremental(k)
	inc.Reload(ids, xs, ys)
	return inc
}

// Reload repositions the estimator at a whole new window in place,
// discarding all maintained points and bulk-loading the given samples in
// one pass instead of cascading per-insert updates. Counters restart from
// zero (Ops and Estimates), as on a fresh estimator. It keeps the marginal
// multisets, the state and list slabs, the id list and the k-d tree, so a
// warm estimator reloads a comparable window without heap allocation. The
// ids need not be sorted or contiguous. Like Insert, it panics on a
// duplicate id, an id outside the int32 range or a non-finite sample.
func (inc *Incremental) Reload(ids []int, xs, ys []float64) {
	inc.clearStates()
	inc.ops = IncrementalOps{}
	inc.estimates = 0
	lo, hi := math.MaxInt, math.MinInt
	for i, id := range ids {
		checkSample(id, xs[i], ys[i])
		lo, hi = min(lo, id), max(hi, id)
	}
	if len(ids) > 0 {
		if need := hi - lo + 1; 2*need > len(inc.slab) {
			inc.slab, inc.nbrs = inc.newSlabs(2 * need)
		}
		inc.base = lo
	}
	for i, id := range ids {
		st := &inc.slab[id-inc.base]
		if st.live {
			panic(fmt.Sprintf("mi: duplicate insert of id %d", id))
		}
		*st = pointState{p: knn.Point{X: xs[i], Y: ys[i]}, live: true}
		inc.ops.Inserts++
		inc.ids = append(inc.ids, id)
	}
	// Bulk Reset sorts once; the result is identical to element-wise Insert.
	inc.xs.Reset(xs)
	inc.ys.Reset(ys)
	slices.Sort(inc.ids)
	inc.rebuildAll()
}

// Reconfigure empties the estimator and re-tunes it to a new neighbour
// count, exactly as NewIncremental(k) would — but reusing the multisets, the
// scratch buffers and the slabs. It is the cross-window counterpart of
// Reload: Reload repositions a warm estimator within one pair, Reconfigure
// retargets it at a search with a different k. Counters restart from zero,
// as on a fresh estimator.
func (inc *Incremental) Reconfigure(k int) {
	if k < 1 {
		k = DefaultK
	}
	inc.clearStates()
	inc.k = k
	inc.xs.Reset(nil)
	inc.ys.Reset(nil)
	inc.ops = IncrementalOps{}
	inc.estimates = 0
	if need := len(inc.slab) * inc.width(); cap(inc.nbrs) >= need {
		inc.nbrs = inc.nbrs[:need]
	} else {
		inc.nbrs = make([]int32, need)
	}
	inc.net = slices.Grow(inc.net[:0], inc.width())[:inc.width()]
}

// minSlab is the smallest state slab allocated.
const minSlab = 64

// width returns the neighbour-list capacity k+reserve.
func (inc *Incremental) width() int { return inc.k + reserve }

// newSlabs returns an empty state slab and its list slab for at least n
// points.
func (inc *Incremental) newSlabs(n int) ([]pointState, []int32) {
	n = max(n, minSlab)
	return make([]pointState, n), make([]int32, n*inc.width())
}

// list returns the full-capacity list slots of the point in slab slot i.
func (inc *Incremental) list(i int) []int32 {
	w := inc.width()
	return inc.nbrs[i*w : i*w+w]
}

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

// rebase moves the live states and their lists so the slabs cover id too.
// The slabs are grown to twice the needed span whenever less than half of
// them would be free, and their free room is put on the side id arrived
// from, so a window sliding steadily one way re-bases once per half slab of
// travel and the copying amortizes to O(1) per insert.
func (inc *Incremental) rebase(id int) {
	n := len(inc.ids)
	if n == 0 {
		if len(inc.slab) == 0 {
			inc.slab, inc.nbrs = inc.newSlabs(minSlab)
		}
		inc.base = id
		return
	}
	lo, hi := inc.ids[0], inc.ids[n-1]
	run := inc.slab[lo-inc.base : hi-inc.base+1]
	need := max(hi, id) - min(lo, id) + 1
	dst, dstNbrs := inc.slab, inc.nbrs
	if 2*need > len(dst) {
		dst, dstNbrs = inc.newSlabs(2 * need)
	}
	base := min(lo, id)
	if id < lo {
		base = hi - len(dst) + 1
	}
	off := lo - base
	w := inc.width()
	copy(dstNbrs[off*w:(off+len(run))*w], inc.nbrs[(lo-inc.base)*w:])
	copy(dst[off:off+len(run)], run)
	if &dst[0] == &inc.slab[0] {
		clear(dst[:off])
		clear(dst[off+len(run):])
	}
	inc.slab, inc.nbrs, inc.base = dst, dstNbrs, base
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

// checkSample panics on an id the int32 lists cannot hold or on a
// non-finite sample: a NaN distance fails every comparison and would
// silently break the lists' exactness.
func checkSample(id int, x, y float64) {
	if int(int32(id)) != id {
		panic(fmt.Sprintf("mi: id %d outside the int32 range", id))
	}
	if !finite(x, y) {
		panic(fmt.Sprintf("mi: non-finite sample (%v, %v) under id %d", x, y, id))
	}
}

// Insert adds the sample (x, y) under id. Inserting an existing id is an
// error (remove it first); ids are typically the time index of the sample.
// Insert panics on a duplicate id, an id outside the int32 range or a
// non-finite sample.
func (inc *Incremental) Insert(id int, x, y float64) {
	checkSample(id, x, y)
	if inc.state(id) != nil {
		panic(fmt.Sprintf("mi: duplicate insert of id %d", id))
	}
	inc.ops.Inserts++
	inc.xs.Insert(x)
	inc.ys.Insert(y)
	st := inc.place(id)
	*st = pointState{p: knn.Point{X: x, Y: y}, live: true}
	// With k or fewer pre-existing points, no cached kNN state is
	// meaningful; commit and rebuild.
	if len(inc.ids) <= inc.k {
		inc.insertID(id)
		inc.rebuildAll()
		return
	}
	inc.classify(id, st, +1)
	inc.insertID(id)
	inc.settle(id-inc.base, st)
}

// Remove deletes the sample under id, reporting whether it existed.
func (inc *Incremental) Remove(id int) bool {
	st := inc.state(id)
	if st == nil {
		return false
	}
	inc.ops.Removes++
	inc.xs.Remove(st.p.X)
	inc.ys.Remove(st.p.Y)
	st.live = false
	inc.removeID(id)
	if len(inc.ids) <= inc.k {
		inc.rebuildAll()
		return true
	}
	inc.classify(id, st, -1)
	return true
}

// classify makes the one linear pass over the other points that inserting
// (sign +1) or removing (sign −1) the point o = ost under id oid takes. The
// marginal multisets already hold o's coordinates (or no longer do); o is
// not in the id list. Per point p, with c the L∞ distance from o:
//
//   - the list: an inserted o enters p's list when (c, oid) precedes its
//     last entry, or when the list holds every other point and has room; a
//     removed o is listed exactly when (c, oid) does not follow the last
//     entry, and leaves. An insert also offers p to o's own list — the pass
//     visits ids in ascending order, so ties keep the lower id, as in the
//     batch estimator;
//   - the state: o inside IR(p) (c ≤ d) refreshes p from its list
//     (Lemmas 3 and 4); otherwise o inside IMR_x(p) or IMR_y(p) adjusts the
//     marginal count by ±1 (Lemmas 5 and 6).
//
// A linear pass is the right shape here: the per-point test is a handful of
// comparisons, and indexed candidate queries were measured slower because
// edge points inflate any radius bound until the candidates approach the
// whole window anyway.
func (inc *Incremental) classify(oid int, ost *pointState, sign int32) {
	o, id32, w := ost.p, int32(oid), int32(inc.width())
	// An insert builds o's list in net and own. Before it, every point has
	// len(ids)−1 others.
	var net []uint64
	own, last, others := inc.list(oid-inc.base), uint64(math.MaxUint64), int32(len(inc.ids)-1)
	if sign > 0 {
		net = inc.freshNet()
	}
	for _, pid := range inc.ids {
		i := pid - inc.base
		st := &inc.slab[i]
		c := gap(o.X, o.Y, st.p.X, st.p.Y)
		if sign > 0 {
			if c < last {
				offer(net, own, c, int32(pid))
				last = net[w-1]
			}
			if c < st.far || c == st.far && id32 < inc.lastID(i, st) || st.nl < w && st.nl == others {
				inc.enter(i, st, id32, c)
			}
		} else if c < st.far || c == st.far && id32 <= inc.lastID(i, st) {
			inc.leave(i, st, id32)
		}
		if c <= st.radius() {
			inc.settle(i, st)
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
	if sign > 0 {
		ost.nl = min(w, int32(len(inc.ids)))
		ost.far = net[ost.nl-1]
	}
}

// freshNet returns the network scratch with every distance at the sentinel,
// which exceeds every distance, +Inf included, so the first candidates all
// enter.
func (inc *Incremental) freshNet() []uint64 {
	for s := range inc.net {
		inc.net[s] = math.MaxUint64
	}
	return inc.net
}

// lastID returns the id of the last entry of the list of the point st in
// slab slot i.
func (inc *Incremental) lastID(i int, st *pointState) int32 {
	return inc.list(i)[st.nl-1]
}

// enter puts the new point (oid, at distance c) into the list of the point
// st in slab slot i, dropping the last entry when the list is full.
func (inc *Incremental) enter(i int, st *pointState, oid int32, c uint64) {
	list := inc.list(i)
	n := int(st.nl)
	if n < len(list) {
		n++
		st.nl++
	}
	// Shift the entries that follow (c, oid) one slot right; the last slot
	// is free or holds the dropped entry.
	st.far = c
	s := n - 1
	for ; s > 0; s-- {
		q := list[s-1]
		qp := inc.slab[int(q)-inc.base].p
		d := gap(qp.X, qp.Y, st.p.X, st.p.Y)
		if d < c || d == c && q < oid {
			break
		}
		if s == n-1 {
			st.far = d
		}
		list[s] = q
	}
	list[s] = oid
}

// leave takes the removed point oid out of the list of the point st in slab
// slot i. A list left shorter than k is refilled by a scan.
func (inc *Incremental) leave(i int, st *pointState, oid int32) {
	list := inc.list(i)[:st.nl]
	at := slices.Index(list, oid)
	copy(list[at:], list[at+1:])
	st.nl--
	switch n := int(st.nl); {
	case n < inc.k:
		inc.requery(i, st)
	case at == n:
		q := inc.slab[int(list[n-1])-inc.base].p
		st.far = gap(q.X, q.Y, st.p.X, st.p.Y)
	}
}

// requery rebuilds the list of the point st in slab slot i from a scan of
// the live points.
func (inc *Incremental) requery(i int, st *pointState) {
	net, list := inc.freshNet(), inc.list(i)
	self, last := inc.base+i, uint64(math.MaxUint64)
	for _, q := range inc.ids {
		qp := inc.slab[q-inc.base].p
		if c := gap(qp.X, qp.Y, st.p.X, st.p.Y); c < last && q != self {
			offer(net, list, c, int32(q))
			last = net[len(net)-1]
		}
	}
	st.nl = int32(min(len(list), len(inc.ids)-1))
	st.far = net[st.nl-1]
	inc.ops.Requeries++
}

// settle recomputes the state of the point st in slab slot i from the first
// k entries of its list, counting one refresh.
func (inc *Incremental) settle(i int, st *pointState) {
	var bx, by uint64
	for _, q := range inc.list(i)[:inc.k] {
		qp := inc.slab[int(q)-inc.base].p
		bx = max(bx, math.Float64bits(qp.X-st.p.X)&^signBit)
		by = max(by, math.Float64bits(qp.Y-st.p.Y)&^signBit)
	}
	inc.ops.Refreshes++
	st.dx, st.dy = math.Float64frombits(bx), math.Float64frombits(by)
	// The interval counts include the point's own coordinate; subtracting it
	// yields Kraskov's n_x, n_y (counts excluding self, as in the batch
	// estimator).
	st.nx = int32(inc.xs.CountWithin(st.p.X, st.dx) - 1)
	st.ny = int32(inc.ys.CountWithin(st.p.Y, st.dy) - 1)
}

// rebuildAll recomputes every point's state and list in one bulk pass.
// Called by Reload and when the population crosses the k threshold where
// incremental state is undefined. The live points are gathered in
// ascending-id order. Up to allPairsMax of them go through the all-pairs
// kernel, more are indexed by a k-d tree and each is queried once. Both
// break distance ties on the local index, which ascending-id order makes
// the id, so every list holds the (distance, id) nearest.
func (inc *Incremental) rebuildAll() {
	m := len(inc.ids)
	if m <= inc.k {
		return
	}
	n := min(inc.width(), m-1)
	if KernelServes(m) {
		var (
			xs, ys [allPairsMax]float64
			a      allPairs
		)
		for j, id := range inc.ids {
			p := inc.slab[id-inc.base].p
			xs[j], ys[j] = p.X, p.Y
		}
		for j, id := range inc.ids {
			i := id - inc.base
			st := &inc.slab[i]
			st.ksgState = a.point(xs[:m], ys[:m], inc.k, n, j)
			list := inc.list(i)
			for s, l := range a.idx[:n] {
				list[s] = int32(inc.ids[l])
			}
			st.nl, st.far = int32(n), a.dist[n-1]
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
		i := id - inc.base
		st := &inc.slab[i]
		nn := inc.tree.KNearestInto(st.p, n, j, inc.scratch)
		list := inc.list(i)
		for s, nb := range nn {
			list[s] = int32(inc.ids[nb.Index])
		}
		st.nl, st.far = int32(n), math.Float64bits(nn[n-1].Dist)
		inc.scratch = nn[:0]
		inc.settle(i, st)
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
		digammaSum += psiCounts(int(st.nx), int(st.ny))
	}
	inc.estimates++
	return ksgMI(inc.k, m, digammaSum), nil
}

// Estimates returns the number of successful MI evaluations since
// construction or the last Reload — the same success-only semantics as
// KSG.Estimates (calls that return ErrTooFewSamples are not counted).
func (inc *Incremental) Estimates() int { return inc.estimates }
