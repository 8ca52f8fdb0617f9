// Package knn provides the 2-D nearest-neighbour and range-counting
// machinery behind the KSG mutual-information estimator: an exact k-d tree
// (Bentley 1975) with bucketed structure-of-arrays leaves that backs every
// batch estimate and the incremental estimator's bulk reloads of large
// windows, the brute-force scanner it is validated against, and sorted
// multisets for the marginal counts. The incremental MI computation of
// Section 7 of the paper needs no dynamic index: its per-point neighbour
// lists live in package mi.
//
// All distances are the Chebyshev (L∞) metric, as required by the KSG
// estimator (paper footnote 1). Every index selects neighbours under the
// (distance, index) total order, so all of them return the same neighbour
// set for the same query.
package knn

import "math"

// Point is a sample (x_i, y_i) of the joint space of a window.
type Point struct {
	X, Y float64
}

// Chebyshev returns the L∞ distance max(|ax−bx|, |ay−by|).
func Chebyshev(a, b Point) float64 {
	dx := math.Abs(a.X - b.X)
	dy := math.Abs(a.Y - b.Y)
	if dx > dy {
		return dx
	}
	return dy
}

// chebyshevCoords is Chebyshev over unpacked coordinates — the hot-loop form
// for structure-of-arrays scans, free of struct construction.
func chebyshevCoords(px, py, qx, qy float64) float64 {
	// math.Abs is a branchless compiler intrinsic; spelling the absolute
	// values with sign tests costs two data-dependent branches per call that
	// mispredict on random input.
	dx := math.Abs(px - qx)
	dy := math.Abs(py - qy)
	if dy > dx {
		return dy
	}
	return dx
}

// Neighbor is a kNN query result: the index of a point and its L∞ distance
// from the query point.
type Neighbor struct {
	Index int
	Dist  float64
}

// Index is the interface shared by the kNN backends. KNearest returns the k
// nearest points to q under the L∞ metric, sorted by ascending distance,
// excluding the point with index exclude (pass −1 to exclude nothing). When
// fewer than k other points exist, all of them are returned. KNearestInto is
// KNearest reusing buf's backing array for the result, so hot loops run
// allocation-free; the returned slice aliases buf when it has capacity.
//
// Ties at the k-th distance are broken by ascending point index, so the
// selected neighbour SET — not just its distances — is identical across
// backends and candidate visit orders. The KSG estimator projects the
// selected set onto each axis; without a total order, tied data could yield
// backend-dependent marginal radii and with them backend-dependent MI.
type Index interface {
	KNearest(q Point, k, exclude int) []Neighbor
	KNearestInto(q Point, k, exclude int, buf []Neighbor) []Neighbor
	Len() int
}

// neighborLess is the strict total order (distance, index) that all backends
// keep their k best candidates under.
func neighborLess(a, b Neighbor) bool {
	//lint:allow floateq exact compare feeds the index tie-break: a tolerant compare would make the order intransitive
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.Index < b.Index
}

// maxHeap is a bounded max-heap over the (distance, index) total order used
// to keep the k best candidates during a query.
type maxHeap []Neighbor

func (h *maxHeap) push(n Neighbor, k int) {
	if len(*h) < k {
		*h = append(*h, n)
		i := len(*h) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if !neighborLess((*h)[parent], (*h)[i]) {
				break
			}
			(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
			i = parent
		}
		return
	}
	if !neighborLess(n, (*h)[0]) {
		return
	}
	(*h)[0] = n
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < len(*h) && neighborLess((*h)[largest], (*h)[l]) {
			largest = l
		}
		if r < len(*h) && neighborLess((*h)[largest], (*h)[r]) {
			largest = r
		}
		if largest == i {
			break
		}
		(*h)[i], (*h)[largest] = (*h)[largest], (*h)[i]
		i = largest
	}
}

// sortInPlace orders the heap contents by ascending (distance, index). The
// slice holds at most k elements and k is single-digit in practice, so an
// insertion sort wins — and unlike sort.Slice it does not allocate, which
// matters because every kNN query in the KSG hot loop ends here.
func (h maxHeap) sortInPlace() {
	for i := 1; i < len(h); i++ {
		for j := i; j > 0 && neighborLess(h[j], h[j-1]); j-- {
			h[j], h[j-1] = h[j-1], h[j]
		}
	}
}

// Brute is the O(n) linear-scan backend. It is the reference implementation
// the tree is validated against.
type Brute struct {
	pts []Point
}

// NewBrute returns a brute-force index over pts. The slice is not copied.
func NewBrute(pts []Point) *Brute { return &Brute{pts: pts} }

// Reset repoints the index at a new point set. The slice is not copied.
func (b *Brute) Reset(pts []Point) { b.pts = pts }

// Len returns the number of indexed points.
func (b *Brute) Len() int { return len(b.pts) }

// KNearest implements Index by scanning every point.
func (b *Brute) KNearest(q Point, k, exclude int) []Neighbor {
	return b.KNearestInto(q, k, exclude, nil)
}

// KNearestInto implements Index.
func (b *Brute) KNearestInto(q Point, k, exclude int, buf []Neighbor) []Neighbor {
	if k <= 0 {
		return nil
	}
	h := maxHeap(buf[:0])
	for i, p := range b.pts {
		if i == exclude {
			continue
		}
		h.push(Neighbor{Index: i, Dist: Chebyshev(q, p)}, k)
	}
	h.sortInPlace()
	return h
}

// CountWithinX returns the number of points with |x − qx| ≤ d, excluding the
// point with index exclude. This is the marginal count n_x of Eq. (2).
func (b *Brute) CountWithinX(qx, d float64, exclude int) int {
	n := 0
	for i, p := range b.pts {
		if i == exclude {
			continue
		}
		if math.Abs(p.X-qx) <= d {
			n++
		}
	}
	return n
}

// CountWithinY is CountWithinX for the y dimension.
func (b *Brute) CountWithinY(qy, d float64, exclude int) int {
	n := 0
	for i, p := range b.pts {
		if i == exclude {
			continue
		}
		if math.Abs(p.Y-qy) <= d {
			n++
		}
	}
	return n
}

// GridCellFor returns a cell size at which a uniform grid over the sample
// would hold about k points per occupied cell: the larger coordinate span
// over √(n/k). NaN or infinite spans, and empty or single-valued samples,
// give 1.
//
// Deprecated: no index in this module uses a cell size any more; it only
// feeds the ignored cell argument of mi.NewIncrementalBulk.
func GridCellFor(sample []Point, k int) float64 {
	if len(sample) == 0 {
		return 1
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, p := range sample {
		minX = math.Min(minX, p.X)
		maxX = math.Max(maxX, p.X)
		minY = math.Min(minY, p.Y)
		maxY = math.Max(maxY, p.Y)
	}
	// !(span > 0) also catches a NaN span, which fails every ordered
	// comparison.
	span := math.Max(maxX-minX, maxY-minY)
	if !(span > 0) || math.IsInf(span, 1) {
		return 1
	}
	cellsPerAxis := max(math.Sqrt(float64(len(sample))/float64(max(k, 1))), 1)
	return span / cellsPerAxis
}
