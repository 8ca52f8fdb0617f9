package mi

import "math"

// Plane estimates KSG on sibling windows that share a common core: the
// windows of one delay in a climb's δ-neighbourhood (a τ-plane), which are
// the current range with each end moved by −Δ, 0 or +Δ. Reset positions it
// on the union of the windows, as one slice of samples, with the core
// [a, b) that every window contains; Estimate(lo, hi) then estimates the
// sub-window [lo, hi) and equals KSG.Estimate on xs[lo:hi], ys[lo:hi] to
// the last bit.
//
// Each union point keeps its k nearest core points under (distance, index),
// built on the point's first use, the nearest edge points on either side
// that could enter them, and a few core counts keyed by the projections
// they were taken at. An estimate then scans only its own edge points
// [lo, a) and [b, hi), and offers them to a point's network only when one
// of them could enter it:
//
//   - Every sub-window contains the core, so each of a point's k nearest
//     points in the sub-window is one of its k nearest core points or one
//     of the sub-window's edge points. The k best of the union of those
//     candidates are the k best of the sub-window.
//   - Right-edge points have higher indices than every core point, so they
//     enter the network in ascending order after equal distances, as in
//     the kernel. Left-edge points have lower indices than every core
//     point, so they enter in descending order before equal distances.
//     The network ends holding the kernel's k points in the kernel's order.
//   - A count is the core count plus the two edge counts, each taken with
//     the kernel's closed-interval predicate, so their integer sum is the
//     kernel's count. The digamma terms are folded in index order, as in
//     the kernel.
//
// A Plane holds its scratch across Resets, so a warm plane allocates
// nothing. It is not safe for concurrent use.
type Plane struct {
	k      int
	xs, ys []float64
	a, b   int // the core [a, b)
	serves bool

	// built marks the points whose state is built. netDist and netIdx
	// hold point i's k nearest core points, ascending under (distance,
	// index), at [i·k, i·k+k); pts holds the rest of its state.
	built   []bool
	netDist []uint64
	netIdx  []int32
	pts     []planePoint
}

// planeSlots is the number of core counts a point caches. A point's
// projections change only when an edge point enters its k best, so most
// points of a τ-plane need one or two.
const planeSlots = 4

// planePoint is one union point's state beside its network.
type planePoint struct {
	// bx, by are the bit patterns of the network's projections: the
	// point's projections in every sub-window whose edge points all miss
	// its k best.
	bx, by uint64
	// right is the lowest right-edge index, left the highest left-edge
	// index, of an edge point that would enter the network (len(xs) and −1
	// when none would). A sub-window [lo, hi) with hi ≤ right and lo > left
	// keeps the network as the point's k best.
	right, left int32
	// n counts the valid slots of the core-count cache; next is the slot
	// the next miss overwrites once all are valid.
	n, next uint8
	slot    [planeSlots]coreCount
}

// coreCount is the number of core points inside the closed intervals
// spanned by the projections with bit patterns bx, by.
type coreCount struct {
	bx, by uint64
	cx, cy int32
}

// Reset positions the plane on the union window (xs, ys) with core [a, b)
// and neighbour count k, and reports whether it serves estimates. It does
// not serve unions of more than allPairsMax samples, cores of k points or
// fewer (a core point would have fewer than k core neighbours), or unions
// with a non-finite sample. The plane reads the samples on each estimate;
// they must not change until the next Reset.
func (p *Plane) Reset(k int, xs, ys []float64, a, b int) bool {
	u := len(xs)
	p.serves = k >= 1 && u <= allPairsMax && len(ys) == u && 0 <= a && b <= u && b-a > k &&
		checkFinite(xs, ys) == nil
	if !p.serves {
		return false
	}
	p.k, p.xs, p.ys, p.a, p.b = k, xs, ys, a, b
	if p.built == nil {
		p.built = make([]bool, allPairsMax)
		p.pts = make([]planePoint, allPairsMax)
	}
	if n := allPairsMax * k; cap(p.netDist) < n {
		p.netDist = make([]uint64, n)
		p.netIdx = make([]int32, n)
	}
	clear(p.built[:u])
	return true
}

// Release drops the plane's references to the samples of its last Reset,
// so a plane kept for reuse does not keep them alive. The plane serves no
// estimate until the next Reset, and keeps its scratch for it.
func (p *Plane) Release() {
	p.xs, p.ys, p.serves = nil, nil, false
}

// Estimate returns the KSG estimate of the sub-window [lo, hi) of the
// union, bit-identical to KSG.Estimate(xs[lo:hi], ys[lo:hi]). ok is false
// when the plane does not serve (see Reset) or the sub-window does not
// contain the core.
func (p *Plane) Estimate(lo, hi int) (est float64, ok bool) {
	if !p.serves || lo < 0 || lo > p.a || hi < p.b || hi > len(p.xs) {
		return 0, false
	}
	xs, ys := p.xs, p.ys[:len(p.xs)]
	var (
		a   allPairs // the merge's scratch
		sum float64
	)
	for i := lo; i < hi; i++ {
		pt := p.point(i)
		bx, by := pt.bx, pt.by
		if hi > int(pt.right) || lo <= int(pt.left) {
			bx, by = p.merge(&a, i, lo, hi)
		}
		xi, yi := xs[i], ys[i]
		dx, dy := math.Float64frombits(bx), math.Float64frombits(by)
		x1, x2, y1, y2 := xi-dx, xi+dx, yi-dy, yi+dy
		cx, cy := p.coreCount(pt, bx, by, x1, x2, y1, y2)
		lx, ly := countWithin(xs[lo:p.a], ys[lo:p.a], x1, x2, y1, y2)
		rx, ry := countWithin(xs[p.b:hi], ys[p.b:hi], x1, x2, y1, y2)
		// The counts include the point's own coordinate (see allPairs.point).
		sum += psiCounts(int(cx+lx+rx-1), int(cy+ly+ry-1))
	}
	return ksgMI(p.k, hi-lo, sum), true
}

// merge returns the projections of point i's k best in [lo, hi): its
// network with the sub-window's edge points offered, in a's arrays.
func (p *Plane) merge(a *allPairs, i, lo, hi int) (bx, by uint64) {
	xs, ys, k := p.xs, p.ys, p.k
	xi, yi := xs[i], ys[i]
	dist, idx := a.dist[:k], a.idx[:k]
	copy(dist, p.netDist[i*k:])
	copy(idx, p.netIdx[i*k:])
	last := dist[k-1]
	for j := p.b; j < hi; j++ {
		d := gap(xs[j], ys[j], xi, yi)
		if d >= last || j == i {
			continue
		}
		offer(dist, idx, d, int32(j))
		last = dist[k-1]
	}
	for j := p.a - 1; j >= lo; j-- {
		d := gap(xs[j], ys[j], xi, yi)
		if d > last || j == i {
			continue
		}
		offerFirst(dist, idx, d, int32(j))
		last = dist[k-1]
	}
	return projections(xs, ys, xi, yi, idx)
}

// projections returns the bit patterns of the per-axis maximum projections
// of the points idx from (xi, yi).
func projections(xs, ys []float64, xi, yi float64, idx []int32) (bx, by uint64) {
	for _, j := range idx {
		bx = max(bx, math.Float64bits(xs[j]-xi)&^signBit)
		by = max(by, math.Float64bits(ys[j]-yi)&^signBit)
	}
	return bx, by
}

// offerFirst is offer for a candidate whose id precedes every id in the
// network: it goes before equal distances. The caller has checked that d
// does not follow the last entry.
func offerFirst(dist []uint64, ids []int32, d uint64, id int32) {
	s := len(dist) - 1
	for ; s > 0 && dist[s-1] >= d; s-- {
		dist[s], ids[s] = dist[s-1], ids[s-1]
	}
	dist[s], ids[s] = d, id
}

// countWithin returns the numbers of points of (xs, ys) inside the closed
// intervals [x1, x2] and [y1, y2], evaluated with CountWithin's predicate.
// x1 ≤ x2, so a value is inside exactly when both bounds agree on it.
func countWithin(xs, ys []float64, x1, x2, y1, y2 float64) (cx, cy int32) {
	ys = ys[:len(xs)]
	for j, x := range xs {
		if (x1 <= x) == (x <= x2) {
			cx++
		}
		if y := ys[j]; (y1 <= y) == (y <= y2) {
			cy++
		}
	}
	return cx, cy
}

// point returns point i's state, building it on first use: the kernel's
// first pass restricted to the core gives the network, and one pass over
// the union's edges finds the edge points that could enter it.
func (p *Plane) point(i int) *planePoint {
	pt := &p.pts[i]
	if p.built[i] {
		return pt
	}
	p.built[i] = true
	k := p.k
	dist, idx := p.netDist[i*k:i*k+k], p.netIdx[i*k:i*k+k]
	for s := range dist {
		dist[s] = math.MaxUint64
	}
	xs, ys := p.xs, p.ys
	xi, yi := xs[i], ys[i]
	last := uint64(math.MaxUint64)
	for j := p.a; j < p.b; j++ {
		d := gap(xs[j], ys[j], xi, yi)
		if d >= last || j == i {
			continue
		}
		offer(dist, idx, d, int32(j))
		last = dist[k-1]
	}
	// A right-edge point enters when it is strictly nearer than the k-th
	// neighbour, a left-edge point when it is no farther (it goes before
	// equal distances). Entries only shrink the k-th distance, so the
	// first edge point that would enter the network bounds every
	// sub-window that keeps it.
	right, left := len(xs), -1
	for j := p.b; j < len(xs); j++ {
		if j != i && gap(xs[j], ys[j], xi, yi) < last {
			right = j
			break
		}
	}
	for j := p.a - 1; j >= 0; j-- {
		if j != i && gap(xs[j], ys[j], xi, yi) <= last {
			left = j
			break
		}
	}
	bx, by := projections(xs, ys, xi, yi, idx)
	*pt = planePoint{bx: bx, by: by, right: int32(right), left: int32(left)}
	return pt
}

// coreCount returns the number of core points inside the point's closed
// intervals [x1, x2] and [y1, y2], spanned by the projections with bit
// patterns bx, by, from its cache when it holds them.
func (p *Plane) coreCount(pt *planePoint, bx, by uint64, x1, x2, y1, y2 float64) (cx, cy int32) {
	for s := range pt.slot[:pt.n] {
		if e := &pt.slot[s]; e.bx == bx && e.by == by {
			return e.cx, e.cy
		}
	}
	cx, cy = countWithin(p.xs[p.a:p.b], p.ys[p.a:p.b], x1, x2, y1, y2)
	s := pt.n
	if s < planeSlots {
		pt.n++
	} else {
		s = pt.next
		pt.next = (pt.next + 1) % planeSlots
	}
	pt.slot[s] = coreCount{bx: bx, by: by, cx: cx, cy: cy}
	return cx, cy
}
