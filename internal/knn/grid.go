package knn

import (
	"math"
	"math/bits"
)

// Grid is a dynamic uniform-grid index over 2-D points supporting insertion,
// removal, kNN queries and rectangle scans. It is the backend of the
// incremental MI computation (Section 7): when a window slides, only a few
// points enter or leave, and the grid keeps neighbourhood queries local.
//
// Points are identified by caller-chosen non-negative ids. The cell size
// should be on the order of the typical kth-neighbour distance; NewGridFor
// derives one from a sample of the data.
// cellEntry stores a point inline with its id so ring scans touch one map
// bucket per cell instead of one per candidate point.
type cellEntry struct {
	id int
	p  Point
}

type Grid struct {
	cell  float64
	cells map[[2]int32][]cellEntry
	pts   map[int]Point
	// free holds the emptied cell buckets of removed or Reset cells, binned
	// by capacity class (bits.Len of the capacity); freeMask has bit c set
	// when class c is non-empty. Insert drains the largest class before
	// allocating, so a warm grid cycles points (and whole window reloads)
	// without heap growth: handing out the largest bucket first makes the
	// bucket-to-cell matching depend on the cell creation order rather than
	// on the map's drain order, and since capacities only grow, a repeated
	// refill stops reallocating after a few rounds.
	free     [freeClasses][][]cellEntry
	freeMask uint32
	// Occupied-cell bounding box, maintained on insert (conservatively kept
	// on remove). It bounds the ring search in O(1) instead of scanning the
	// cell map per query.
	boundsValid  bool
	minCx, maxCx int32
	minCy, maxCy int32
}

// NewGrid returns an empty grid with the given cell size (must be positive;
// non-positive values fall back to 1).
func NewGrid(cellSize float64) *Grid {
	if !(cellSize > 0) || math.IsInf(cellSize, 1) {
		cellSize = 1
	}
	return &Grid{
		cell:  cellSize,
		cells: make(map[[2]int32][]cellEntry),
		pts:   make(map[int]Point),
	}
}

// NewGridFor returns an empty grid whose cell size is tuned for the given
// sample of points and neighbour count k: roughly the spacing at which a
// cell holds O(k) points, so ring searches terminate after a few rings.
func NewGridFor(sample []Point, k int) *Grid {
	return NewGrid(GridCellFor(sample, k))
}

// GridCellFor returns the cell size NewGridFor would tune for the sample —
// exposed so callers that Reset a warm grid can re-derive the same tuning
// without constructing a throwaway instance.
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
	// !(span > 0) rather than span <= 0: a NaN span (any NaN coordinate in
	// the sample) fails every ordered comparison, so the old form let NaN
	// through and returned a NaN cell size that only Grid.Reset's fallback
	// masked later. An infinite span (coordinates straddling ±huge) would
	// likewise produce a useless infinite cell. Both get the documented
	// fallback of 1 at derivation time.
	span := math.Max(maxX-minX, maxY-minY)
	if !(span > 0) || math.IsInf(span, 1) {
		return 1
	}
	if k < 1 {
		k = 1
	}
	// Aim for ~n/k occupied cells along the dominant span.
	cellsPerAxis := math.Sqrt(float64(len(sample)) / float64(k))
	if cellsPerAxis < 1 {
		cellsPerAxis = 1
	}
	return span / cellsPerAxis
}

// Cell returns the grid's cell size.
func (g *Grid) Cell() float64 { return g.cell }

// Reset empties the grid in place and adopts the given cell size (values
// that NewGrid would reject fall back to 1 the same way). The cell map, its
// buckets and the point map keep their capacity: a warm grid refills a
// comparable point set without heap allocation, which is what lets the KSG
// grid backend and the incremental estimator reload whole windows for free.
func (g *Grid) Reset(cellSize float64) {
	if !(cellSize > 0) || math.IsInf(cellSize, 1) {
		cellSize = 1
	}
	g.cell = cellSize
	//lint:allow nodeterm drain order only permutes equal-capacity buckets within a free-list class; contents and counts are unaffected
	for _, bucket := range g.cells {
		g.release(bucket)
	}
	clear(g.cells)
	clear(g.pts)
	g.boundsValid = false
}

// Len returns the number of points currently in the grid.
func (g *Grid) Len() int { return len(g.pts) }

// Point returns the point stored under id and whether it exists.
func (g *Grid) Point(id int) (Point, bool) {
	p, ok := g.pts[id]
	return p, ok
}

func (g *Grid) key(p Point) [2]int32 {
	return [2]int32{cellCoord(p.X, g.cell), cellCoord(p.Y, g.cell)}
}

// cellCoord maps a coordinate to its cell index, saturating at the int32
// range. A plain int32(math.Floor(v / cell)) is implementation-specific for
// values beyond ±2³¹ cells (Go spec: the behaviour of out-of-range
// float→int conversions is not defined), which silently corrupted keys for
// extreme-magnitude points or tiny cell sizes. Saturation keeps the mapping
// monotone and 1-Lipschitz in cell units — key distance never exceeds true
// cell distance — so the ring search's termination bound ("everything in
// rings beyond r is at least r·cell away") still holds; far-flung points
// merely collapse into the boundary cells, degrading locality, not
// correctness. NaN coordinates map to cell 0.
func cellCoord(v, cell float64) int32 {
	f := math.Floor(v / cell)
	if math.IsNaN(f) {
		return 0
	}
	if f >= math.MaxInt32 {
		return math.MaxInt32
	}
	if f <= math.MinInt32 {
		return math.MinInt32
	}
	return int32(f)
}

// Insert adds the point under id. Inserting an existing id replaces its
// point.
func (g *Grid) Insert(id int, p Point) {
	if old, ok := g.pts[id]; ok {
		g.removeFromCell(g.key(old), id)
	}
	g.pts[id] = p
	k := g.key(p)
	bucket, ok := g.cells[k]
	if !ok {
		bucket = g.acquire()
	}
	g.cells[k] = append(bucket, cellEntry{id: id, p: p})
	if !g.boundsValid {
		g.minCx, g.maxCx, g.minCy, g.maxCy = k[0], k[0], k[1], k[1]
		g.boundsValid = true
		return
	}
	if k[0] < g.minCx {
		g.minCx = k[0]
	}
	if k[0] > g.maxCx {
		g.maxCx = k[0]
	}
	if k[1] < g.minCy {
		g.minCy = k[1]
	}
	if k[1] > g.maxCy {
		g.maxCy = k[1]
	}
}

// Remove deletes the point under id, reporting whether it existed.
func (g *Grid) Remove(id int) bool {
	p, ok := g.pts[id]
	if !ok {
		return false
	}
	g.removeFromCell(g.key(p), id)
	delete(g.pts, id)
	if len(g.pts) == 0 {
		g.boundsValid = false
	}
	return true
}

func (g *Grid) removeFromCell(k [2]int32, id int) {
	bucket := g.cells[k]
	for i := range bucket {
		if bucket[i].id == id {
			bucket[i] = bucket[len(bucket)-1]
			bucket = bucket[:len(bucket)-1]
			break
		}
	}
	if len(bucket) == 0 {
		g.release(bucket)
		delete(g.cells, k)
	} else {
		g.cells[k] = bucket
	}
}

// freeClasses bounds the free-list capacity classes; buckets of capacity
// 2^(freeClasses−2) and above share the top class.
const freeClasses = 20

// release pools an emptied cell bucket under its capacity class.
func (g *Grid) release(bucket []cellEntry) {
	c := min(bits.Len(uint(cap(bucket))), freeClasses-1)
	g.free[c] = append(g.free[c], bucket[:0])
	g.freeMask |= 1 << c
}

// acquire pops a bucket from the largest non-empty capacity class, or returns
// nil when the pool is empty.
func (g *Grid) acquire() []cellEntry {
	if g.freeMask == 0 {
		return nil
	}
	c := bits.Len32(g.freeMask) - 1
	n := len(g.free[c]) - 1
	bucket := g.free[c][n]
	g.free[c] = g.free[c][:n]
	if n == 0 {
		g.freeMask &^= 1 << c
	}
	return bucket
}

// KNearest implements Index via an expanding ring search: candidates are
// gathered cell ring by cell ring until the kth-best distance provably beats
// every unvisited ring.
func (g *Grid) KNearest(q Point, k, exclude int) []Neighbor {
	return g.KNearestInto(q, k, exclude, nil)
}

// KNearestInto is KNearest reusing buf's backing array for the result,
// letting hot loops (the incremental MI refreshes) run allocation-free.
func (g *Grid) KNearestInto(q Point, k, exclude int, buf []Neighbor) []Neighbor {
	if k <= 0 || len(g.pts) == 0 {
		return nil
	}
	h := maxHeap(buf[:0])
	center := [2]int64{int64(cellCoord(q.X, g.cell)), int64(cellCoord(q.Y, g.cell))}
	// The bounding box of occupied cells caps the ring search; the box is
	// conservative after removals, but empty rings cost only their perimeter
	// lookups. The distances are computed in int64: the saturated box can
	// legitimately span the whole int32 range, where an int32 subtraction
	// would wrap.
	maxRing := int64(0)
	for _, d := range [4]int64{
		center[0] - int64(g.minCx), int64(g.maxCx) - center[0],
		center[1] - int64(g.minCy), int64(g.maxCy) - center[1],
	} {
		if d > maxRing {
			maxRing = d
		}
	}
	// A ring sweep costs at least one perimeter visit per ring; when the box
	// spans more rings than there are points (extreme-magnitude outliers,
	// tiny cells), a linear scan is strictly cheaper than even the empty
	// rings. k-best under the strict (distance, index) total order is
	// insertion-order independent, so scanning the point map directly returns
	// the same neighbour set the rings would.
	if maxRing > int64(len(g.pts)) {
		//lint:allow nodeterm bounded (distance, index) selection is a commutative fold; map iteration order cannot change the selected set
		for id, p := range g.pts {
			if id == exclude {
				continue
			}
			h.push(Neighbor{Index: id, Dist: Chebyshev(q, p)}, k)
		}
		h.sortInPlace()
		return h
	}
	for r := int64(0); r <= maxRing; r++ {
		g.scanRing(center, r, q, k, exclude, &h)
		// Any point in a ring > r is at least r·cell away (the query point
		// sits somewhere inside the centre cell, so ring r+1 cells start at
		// L∞ distance ≥ r·cell).
		if len(h) >= k && h.worst() <= float64(r)*g.cell {
			break
		}
	}
	h.sortInPlace()
	return h
}

func (g *Grid) scanRing(center [2]int64, r int64, q Point, k, exclude int, h *maxHeap) {
	// Ring coordinates are computed in int64 and clipped to the occupied box
	// before narrowing to a map key: center ± r can exceed the int32 range
	// near the saturation boundary, and an unclipped wraparound would
	// re-visit occupied cells and push duplicate candidates.
	visit := func(cx, cy int64) {
		if cx < int64(g.minCx) || cx > int64(g.maxCx) || cy < int64(g.minCy) || cy > int64(g.maxCy) {
			return
		}
		for _, e := range g.cells[[2]int32{int32(cx), int32(cy)}] {
			if e.id == exclude {
				continue
			}
			h.push(Neighbor{Index: e.id, Dist: Chebyshev(q, e.p)}, k)
		}
	}
	if r == 0 {
		visit(center[0], center[1])
		return
	}
	for dx := -r; dx <= r; dx++ {
		visit(center[0]+dx, center[1]-r)
		visit(center[0]+dx, center[1]+r)
	}
	for dy := -r + 1; dy <= r-1; dy++ {
		visit(center[0]-r, center[1]+dy)
		visit(center[0]+r, center[1]+dy)
	}
}

// VisitRect calls fn for every point id whose coordinates fall inside the
// closed rectangle [xlo,xhi]×[ylo,yhi]. The visit order is unspecified:
// callers needing a reproducible result must fold commutatively (counting,
// max) or sort what they collect.
func (g *Grid) VisitRect(xlo, xhi, ylo, yhi float64, fn func(id int, p Point)) {
	if xlo > xhi || ylo > yhi {
		return
	}
	cx0 := cellCoord(xlo, g.cell)
	cx1 := cellCoord(xhi, g.cell)
	cy0 := cellCoord(ylo, g.cell)
	cy1 := cellCoord(yhi, g.cell)
	// When the rectangle spans more cells than there are points, iterating
	// the point map directly is cheaper. The extents are checked individually
	// before multiplying: each can reach 2³², so their product can overflow
	// even int64.
	w := int64(cx1) - int64(cx0) + 1
	ht := int64(cy1) - int64(cy0) + 1
	n := int64(len(g.pts))
	if w > n || ht > n || w*ht > n {
		// Visit order is unspecified either way (cell-scan order is not id
		// order), so callers must fold commutatively; CountRect, the only
		// non-test caller, counts.
		//lint:allow nodeterm VisitRect documents unspecified visit order; its callers are commutative counting folds
		for id, p := range g.pts {
			if p.X >= xlo && p.X <= xhi && p.Y >= ylo && p.Y <= yhi {
				fn(id, p)
			}
		}
		return
	}
	for cx := cx0; cx <= cx1; cx++ {
		for cy := cy0; cy <= cy1; cy++ {
			for _, e := range g.cells[[2]int32{cx, cy}] {
				if e.p.X >= xlo && e.p.X <= xhi && e.p.Y >= ylo && e.p.Y <= yhi {
					fn(e.id, e.p)
				}
			}
		}
	}
}

// CountRect returns the number of points inside the closed rectangle.
func (g *Grid) CountRect(xlo, xhi, ylo, yhi float64) int {
	n := 0
	g.VisitRect(xlo, xhi, ylo, yhi, func(int, Point) { n++ })
	return n
}

// VisitSquare calls fn for every point within L∞ distance d of q (a closed
// square query).
func (g *Grid) VisitSquare(q Point, d float64, fn func(id int, p Point)) {
	g.VisitRect(q.X-d, q.X+d, q.Y-d, q.Y+d, fn)
}

// VisitStripX calls fn for every point whose X coordinate lies in the closed
// interval [xlo, xhi], regardless of Y. The scan is bounded by the occupied
// cell box.
func (g *Grid) VisitStripX(xlo, xhi float64, fn func(id int, p Point)) {
	if !g.boundsValid || xlo > xhi {
		return
	}
	cx0 := clampCell(int64(floorDiv(xlo, g.cell)), g.minCx, g.maxCx)
	cx1 := clampCell(int64(floorDiv(xhi, g.cell)), g.minCx, g.maxCx)
	for cx := cx0; cx <= cx1; cx++ {
		for cy := g.minCy; cy <= g.maxCy; cy++ {
			for _, e := range g.cells[[2]int32{cx, cy}] {
				if e.p.X >= xlo && e.p.X <= xhi {
					fn(e.id, e.p)
				}
			}
		}
	}
}

// VisitStripY is VisitStripX for the Y dimension.
func (g *Grid) VisitStripY(ylo, yhi float64, fn func(id int, p Point)) {
	if !g.boundsValid || ylo > yhi {
		return
	}
	cy0 := clampCell(int64(floorDiv(ylo, g.cell)), g.minCy, g.maxCy)
	cy1 := clampCell(int64(floorDiv(yhi, g.cell)), g.minCy, g.maxCy)
	for cy := cy0; cy <= cy1; cy++ {
		for cx := g.minCx; cx <= g.maxCx; cx++ {
			for _, e := range g.cells[[2]int32{cx, cy}] {
				if e.p.Y >= ylo && e.p.Y <= yhi {
					fn(e.id, e.p)
				}
			}
		}
	}
}

func floorDiv(v, cell float64) float64 { return math.Floor(v / cell) }

func clampCell(v int64, lo, hi int32) int32 {
	if v < int64(lo) {
		return lo
	}
	if v > int64(hi) {
		return hi
	}
	return int32(v)
}
