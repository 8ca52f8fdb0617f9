package knn

import "math"

// KDTree is a static, exact 2-d tree over a point set — the default backend
// for batch KSG estimation. Internal nodes split at the median of the wider
// axis; leaves hold up to kdLeafSize points stored as contiguous
// structure-of-arrays runs, so the leaf scan that dominates query time reads
// two sequential float64 streams instead of chasing one node per point.
//
// A tree is rebuilt in place with Reset, which reuses the node arena and the
// leaf arrays of earlier builds — the KSG hot path rebuilds one tree per
// window and must not allocate in steady state.
//
// The build partitions under the total order (axis coordinate, point index),
// so the tree shape is a pure function of the point set. Queries are exact
// branch-and-bound searches under the (distance, index) total order, so their
// answers equal Brute's bit for bit whatever the tree shape.
type KDTree struct {
	pts    []Point
	nodes  []kdNode
	ids    []int32 // leaf-ordered point indices (the build permutation)
	xs, ys []float64
}

// kdLeafSize is the maximum number of points per leaf. A leaf scan is two
// sequential float64 streams and costs far less per point than a traversal
// step, so leaves are sized well above k.
const kdLeafSize = 16

// kdNode is an internal split (axis 0/1) or a leaf (axis −1, left/right
// holding the [start, end) range into the tree's leaf-ordered arrays).
type kdNode struct {
	split       float64
	left, right int32
	axis        int8
}

// NewKDTree builds a 2-d tree over pts. The slice is not copied; the tree
// references points by their index in pts.
func NewKDTree(pts []Point) *KDTree {
	t := &KDTree{}
	t.Reset(pts)
	return t
}

// Reset rebuilds the tree over pts in place. The node arena and leaf arrays
// are reused, so a warm tree rebuilds with zero heap allocations whenever pts
// is no larger than any earlier point set.
func (t *KDTree) Reset(pts []Point) {
	n := len(pts)
	t.pts = pts
	t.nodes = t.nodes[:0]
	if cap(t.ids) < n {
		t.ids = make([]int32, n)
		t.xs = make([]float64, n)
		t.ys = make([]float64, n)
	}
	t.ids, t.xs, t.ys = t.ids[:n], t.xs[:n], t.ys[:n]
	if n == 0 {
		return
	}
	for i := range t.ids {
		t.ids[i] = int32(i)
	}
	// Every leaf of a tree over more than kdLeafSize points holds at least
	// kdLeafSize/2 of them, which bounds the node count.
	if maxNodes := 2*(n/(kdLeafSize/2)) + 1; cap(t.nodes) < maxNodes {
		t.nodes = make([]kdNode, 0, maxNodes)
	}
	t.build(0, n)
	for j, id := range t.ids {
		t.xs[j], t.ys[j] = pts[id].X, pts[id].Y
	}
}

// build partitions ids[lo:hi) and appends the subtree's nodes to the arena in
// preorder, returning the subtree root's node id.
func (t *KDTree) build(lo, hi int) int32 {
	id := int32(len(t.nodes))
	if hi-lo <= kdLeafSize {
		t.nodes = append(t.nodes, kdNode{axis: -1, left: int32(lo), right: int32(hi)})
		return id
	}
	axis := t.widerAxis(lo, hi)
	mid := lo + (hi-lo)/2
	t.selectMedian(t.ids[lo:hi], mid-lo, axis)
	t.nodes = append(t.nodes, kdNode{axis: axis, split: t.coord(t.ids[mid], axis)})
	left := t.build(lo, mid)
	right := t.build(mid, hi)
	t.nodes[id].left = left
	t.nodes[id].right = right
	return id
}

func (t *KDTree) coord(id int32, axis int8) float64 {
	if axis == 0 {
		return t.pts[id].X
	}
	return t.pts[id].Y
}

// widerAxis returns the axis along which ids[lo:hi) spans the wider range
// (x on ties).
func (t *KDTree) widerAxis(lo, hi int) int8 {
	p := t.pts[t.ids[lo]]
	minX, maxX, minY, maxY := p.X, p.X, p.Y, p.Y
	for _, id := range t.ids[lo+1 : hi] {
		p := t.pts[id]
		minX, maxX = min(minX, p.X), max(maxX, p.X)
		minY, maxY = min(minY, p.Y), max(maxY, p.Y)
	}
	if maxY-minY > maxX-minX {
		return 1
	}
	return 0
}

// selectMedian rearranges idx so idx[mid] holds the element a full sort under
// (coord, index) would place there, with smaller elements before it and
// larger ones after — an in-place quickselect with median-of-three pivots and
// an insertion-sort base case, free of heap allocation. The index tie-break
// makes it a strict total order, so tied coordinates partition
// deterministically.
func (t *KDTree) selectMedian(idx []int32, mid int, axis int8) {
	less := func(a, b int32) bool {
		va, vb := t.coord(a, axis), t.coord(b, axis)
		//lint:allow floateq exact compare feeds the index tie-break: a tolerant compare would break the strict total order the deterministic build relies on
		if va != vb {
			return va < vb
		}
		return a < b
	}
	lo, hi := 0, len(idx)-1
	for lo < hi {
		if hi-lo < 12 {
			for i := lo + 1; i <= hi; i++ {
				for j := i; j > lo && less(idx[j], idx[j-1]); j-- {
					idx[j], idx[j-1] = idx[j-1], idx[j]
				}
			}
			return
		}
		m := lo + (hi-lo)/2
		if less(idx[m], idx[lo]) {
			idx[m], idx[lo] = idx[lo], idx[m]
		}
		if less(idx[hi], idx[lo]) {
			idx[hi], idx[lo] = idx[lo], idx[hi]
		}
		if less(idx[hi], idx[m]) {
			idx[hi], idx[m] = idx[m], idx[hi]
		}
		idx[m], idx[hi-1] = idx[hi-1], idx[m]
		pivot := idx[hi-1]
		i := lo
		for j := lo; j < hi-1; j++ {
			if less(idx[j], pivot) {
				idx[i], idx[j] = idx[j], idx[i]
				i++
			}
		}
		idx[i], idx[hi-1] = idx[hi-1], idx[i]
		switch {
		case i == mid:
			return
		case mid < i:
			hi = i - 1
		default:
			lo = i + 1
		}
	}
}

// Len returns the number of indexed points.
func (t *KDTree) Len() int { return len(t.pts) }

// KNearest implements Index.
func (t *KDTree) KNearest(q Point, k, exclude int) []Neighbor {
	return t.KNearestInto(q, k, exclude, nil)
}

// KNearestInto is KNearest reusing buf's backing array for the result,
// letting hot loops run allocation-free.
func (t *KDTree) KNearestInto(q Point, k, exclude int, buf []Neighbor) []Neighbor {
	n := len(t.pts)
	if k <= 0 || n == 0 {
		return nil
	}
	avail := n
	if exclude >= 0 && exclude < n {
		avail--
	}
	s := kdSearch{t: t, q: q, want: min(k, avail), exclude: exclude, res: buf[:0]}
	if s.want == 0 {
		return nil
	}
	s.node(0, 0)
	h := maxHeap(s.res)
	h.sortInPlace()
	return h
}

// kdSearch is one query's state, shared by the recursive search instead of
// being passed down as arguments. The running k-best set (res)
// is kept UNSORTED with its worst element tracked by index: every candidate
// is admitted or rejected by inline compares in the leaf loop, and the final
// (distance, index) sort happens once per query.
type kdSearch struct {
	t        *KDTree
	q        Point
	want     int
	exclude  int
	full     bool    // res holds want results
	worst    float64 // res[worstIdx].Dist when full
	worstIdx int
	res      []Neighbor
}

// node is the branch-and-bound step: bound is the L∞ lower bound on the
// distance from the query to any point under the node. Subtrees are descended
// near side first; a subtree is pruned only when its bound strictly exceeds
// the current worst, because a point AT the worst distance can still win on
// index.
func (s *kdSearch) node(id int32, bound float64) {
	if s.full && bound > s.worst {
		return
	}
	nd := &s.t.nodes[id]
	if nd.axis >= 0 {
		diff := s.q.X - nd.split
		if nd.axis == 1 {
			diff = s.q.Y - nd.split
		}
		near, far := nd.left, nd.right
		if diff >= 0 {
			near, far = far, near
		}
		s.node(near, bound)
		s.node(far, max(bound, math.Abs(diff)))
		return
	}
	// Leaf scan over the SoA run. Everything stays inline: a candidate is
	// rejected by one float compare against the tracked worst, and an
	// admission replaces the worst element and re-scans the ≤k-element set —
	// k−1 compares, no calls. The selection rule is maxHeap.push's: a
	// candidate wins on (distance, index).
	lo, hi := int(nd.left), int(nd.right)
	ids := s.t.ids[lo:hi]
	lxs := s.t.xs[lo:hi]
	lys := s.t.ys[lo:hi]
	qx, qy := s.q.X, s.q.Y
	exclude, want := s.exclude, s.want
	res := s.res
	full, worst, worstIdx := s.full, s.worst, s.worstIdx
	for j, id32 := range ids {
		id := int(id32)
		if id == exclude {
			continue
		}
		d := chebyshevCoords(lxs[j], lys[j], qx, qy)
		if full {
			//lint:allow floateq exact distance ties break by index under the deterministic (distance, index) total order
			if d > worst || (d == worst && id > res[worstIdx].Index) {
				continue
			}
			res[worstIdx] = Neighbor{Index: id, Dist: d}
		} else {
			res = append(res, Neighbor{Index: id, Dist: d})
			if len(res) < want {
				continue
			}
			full = true
		}
		worstIdx = 0
		for i := 1; i < len(res); i++ {
			if neighborLess(res[worstIdx], res[i]) {
				worstIdx = i
			}
		}
		worst = res[worstIdx].Dist
	}
	s.res = res
	s.full, s.worst, s.worstIdx = full, worst, worstIdx
}
