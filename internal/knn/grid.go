package knn

import "math"

// Grid is a dynamic uniform-grid index over 2-D points supporting insertion,
// removal and kNN queries. It is the backend of the incremental MI
// computation (Section 7): when a window slides, only a few points enter or
// leave, and the grid keeps neighbourhood queries local.
//
// Points are identified by caller-chosen ids, unique among the stored points;
// the grid does not check uniqueness. The cell size should be on the order of
// the typical kth-neighbour distance; NewGridFor derives one from a sample of
// the data.
//
// The cells live in one flat row-major slice over a box of cell coordinates
// sized from the data. A point whose cell falls outside the box grows the box
// (every stored point is re-laid, with slack so growth amortizes) until the
// box holds the cell budget for the current point count; past that, cell
// coordinates clamp into the border cells. Clamping is monotone and
// 1-Lipschitz in cell units — the property cellCoord's int32 saturation
// already relies on — so the ring search's termination bound still holds:
// far-flung points cost locality, never correctness.
type Grid struct {
	cell float64
	// The box covers cell coordinates [x0, x0+w) × [y0, y0+h); the cell at
	// box offset (cx, cy) is cells[cy·w + cx]. Buckets past w·h are empty and
	// keep their capacity for later layouts.
	x0, y0 int64
	w, h   int
	cells  [][]cellEntry
	n      int
	// relay is the scratch a box growth re-lays the stored points through.
	relay []cellEntry
}

// cellEntry stores a point inline with its id so a ring scan reads one
// contiguous bucket per cell.
type cellEntry struct {
	id int
	p  Point
}

// The cell budget caps the box at max(gridMinCells, gridCellsPerPoint·n)
// cells for n points, so empty cells stay O(points) however far apart the
// points are.
const (
	gridMinCells      = 256
	gridCellsPerPoint = 4
)

// NewGrid returns an empty grid with the given cell size (must be positive;
// non-positive values fall back to 1).
func NewGrid(cellSize float64) *Grid {
	g := &Grid{}
	g.Reset(cellSize)
	return g
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
// that NewGrid would reject fall back to 1 the same way). The cell slice and
// its buckets keep their capacity, and so does the box when the cell size is
// unchanged: a warm grid refills a comparable point set without heap
// allocation, which is what lets the incremental estimator reload whole
// windows for free.
func (g *Grid) Reset(cellSize float64) {
	if !(cellSize > 0) || math.IsInf(cellSize, 1) {
		cellSize = 1
	}
	for i := range g.cells[:g.w*g.h] {
		g.cells[i] = g.cells[i][:0]
	}
	g.n = 0
	//lint:allow floateq the box is measured in cells of exactly this size; any other size invalidates it
	if cellSize != g.cell {
		g.cell = cellSize
		g.w, g.h = 0, 0
	}
}

// Len returns the number of points currently in the grid.
func (g *Grid) Len() int { return g.n }

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

// rawCell returns p's cell coordinates before clamping into the box.
func (g *Grid) rawCell(p Point) (int64, int64) {
	return int64(cellCoord(p.X, g.cell)), int64(cellCoord(p.Y, g.cell))
}

// boxCell returns p's cell as box offsets, clamped into the box.
func (g *Grid) boxCell(p Point) (int, int) {
	cx, cy := g.rawCell(p)
	return clampAxis(cx-g.x0, g.w), clampAxis(cy-g.y0, g.h)
}

func clampAxis(v int64, n int) int {
	if v < 0 {
		return 0
	}
	if v >= int64(n) {
		return n - 1
	}
	return int(v)
}

// Insert adds the point under id, which must not be stored already.
func (g *Grid) Insert(id int, p Point) {
	cx, cy := g.rawCell(p)
	outside := cx < g.x0 || cx >= g.x0+int64(g.w) || cy < g.y0 || cy >= g.y0+int64(g.h)
	// Grow only while the box is under half the budget: a box that already
	// spends the budget clamps outliers instead of re-laying every point on
	// each of them. The budget rises with the point count, so growth stays
	// amortized.
	if outside && 2*g.w*g.h <= cellBudget(g.n+1) {
		g.grow(cx, cy)
	}
	x, y := g.boxCell(p)
	i := y*g.w + x
	g.cells[i] = append(g.cells[i], cellEntry{id: id, p: p})
	g.n++
}

// Remove deletes the point stored under id at p (the point it was inserted
// with), reporting whether it was found.
func (g *Grid) Remove(id int, p Point) bool {
	if g.n == 0 {
		return false
	}
	x, y := g.boxCell(p)
	i := y*g.w + x
	bucket := g.cells[i]
	for j := range bucket {
		if bucket[j].id == id {
			bucket[j] = bucket[len(bucket)-1]
			g.cells[i] = bucket[:len(bucket)-1]
			g.n--
			return true
		}
	}
	return false
}

func cellBudget(n int) int {
	return max(gridMinCells, gridCellsPerPoint*n)
}

// grow re-sizes the box around the raw cells of every stored point and of
// (cx, cy) — a quarter of each extent as slack on both sides, capped at the
// cell budget — and re-lays the stored points into it.
func (g *Grid) grow(cx, cy int64) {
	minX, maxX, minY, maxY := cx, cx, cy, cy
	g.relay = g.relay[:0]
	for i := range g.cells[:g.w*g.h] {
		for _, e := range g.cells[i] {
			ex, ey := g.rawCell(e.p)
			minX, maxX = min(minX, ex), max(maxX, ex)
			minY, maxY = min(minY, ey), max(maxY, ey)
			g.relay = append(g.relay, e)
		}
		g.cells[i] = g.cells[i][:0]
	}
	limit := int64(cellBudget(g.n + 1))
	x0, w := paddedAxis(minX, maxX)
	y0, h := paddedAxis(minY, maxY)
	w, h = min(w, limit), min(h, limit)
	if w*h > limit {
		side := int64(math.Sqrt(float64(limit)))
		switch {
		case w <= side:
			h = limit / w
		case h <= side:
			w = limit / h
		default:
			w, h = side, side
		}
	}
	g.x0, g.y0, g.w, g.h = x0, y0, int(w), int(h)
	if n := g.w * g.h; len(g.cells) < n {
		g.cells = append(g.cells, make([][]cellEntry, n-len(g.cells))...)
	}
	for _, e := range g.relay {
		x, y := g.boxCell(e.p)
		i := y*g.w + x
		g.cells[i] = append(g.cells[i], e)
	}
}

// paddedAxis returns the start and length of the cell range [lo, hi] widened
// by a quarter of its extent (at least one cell) on each side.
func paddedAxis(lo, hi int64) (int64, int64) {
	ext := hi - lo + 1
	pad := max(ext/4, 1)
	return lo - pad, ext + 2*pad
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
	if k <= 0 || g.n == 0 {
		return nil
	}
	h := maxHeap(buf[:0])
	cx, cy := g.boxCell(q)
	// Rings are clipped to the box, so the sweep visits each cell at most
	// once and costs at most the box's O(points) cells.
	maxRing := max(cx, g.w-1-cx, cy, g.h-1-cy)
	for r := 0; r <= maxRing; r++ {
		g.scanRing(cx, cy, r, q, k, exclude, &h)
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

// scanRing pushes the points of the box cells at ring distance r from the
// box cell (cx, cy).
func (g *Grid) scanRing(cx, cy, r int, q Point, k, exclude int, h *maxHeap) {
	xlo, xhi := max(cx-r, 0), min(cx+r, g.w-1)
	if cy-r >= 0 {
		g.scanCells((cy-r)*g.w, xlo, xhi, 1, q, k, exclude, h)
	}
	if r == 0 {
		return
	}
	if cy+r < g.h {
		g.scanCells((cy+r)*g.w, xlo, xhi, 1, q, k, exclude, h)
	}
	ylo, yhi := max(cy-r+1, 0), min(cy+r-1, g.h-1)
	if cx-r >= 0 {
		g.scanCells(cx-r, ylo, yhi, g.w, q, k, exclude, h)
	}
	if cx+r < g.w {
		g.scanCells(cx+r, ylo, yhi, g.w, q, k, exclude, h)
	}
}

// scanCells pushes the points of the cells origin + i·stride for i in
// [lo, hi].
func (g *Grid) scanCells(origin, lo, hi, stride int, q Point, k, exclude int, h *maxHeap) {
	for i := lo; i <= hi; i++ {
		for _, e := range g.cells[origin+i*stride] {
			if e.id == exclude {
				continue
			}
			h.push(Neighbor{Index: e.id, Dist: Chebyshev(q, e.p)}, k)
		}
	}
}
