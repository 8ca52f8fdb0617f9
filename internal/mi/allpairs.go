package mi

import (
	"math"

	"tycos/internal/mathx"
)

// allPairsMax is the largest window the all-pairs kernel serves; larger
// windows go through the k-d tree and the sorted marginals. The kernel costs
// O(m²) per window with a small constant, the tree O(m log m) with a large
// one. Measured with BenchmarkKSGCrossover on a 2-vCPU Xeon VM (Go 1.24),
// a warm estimate on Gaussian data (ρ 0.6, k = 4) takes, tree → kernel:
// 13.7 → 5.9 µs at m = 16, 35 → 17 µs at 32, 83 → 51 µs at 64, 129 → 93 µs
// at 96, 183 → 155 µs at 128; with the bound raised for the measurement,
// 246 → 223 µs at 160 and 296 → 309 µs at 192. A warm Incremental.Reload,
// which sorts its marginals either way, crosses earlier: 190 → 173 µs at
// 128, 233 → 252 µs at 160. The switch sits at 128, below both crossings.
const allPairsMax = 128

// ksgState is one point's KSG state in a window: the k nearest
// neighbours' per-axis maximum projections, and the raw counts of the other
// window points inside the closed marginal intervals those projections
// span. The L∞ distance to the k-th neighbour (the IR half-width) is not
// stored: it is the largest of the k best's L∞ distances, and so the larger
// of the two projections, bit for bit (see radius).
type ksgState struct {
	// dx, dy are ε_x/2 and ε_y/2, the IMR half-widths. A value u lies in
	// the x interval when x−dx ≤ u ≤ x+dx, evaluated in exactly that form
	// — OrderedMultiset.CountWithin's predicate — in every path.
	dx, dy float64
	// nx, ny count the other points inside the intervals — Kraskov's n_x,
	// n_y, not yet floored (see psiCounts). They are int32 to keep the
	// incremental estimator's point state small.
	nx, ny int32
}

// radius returns the bit pattern of the L∞ distance to the k-th neighbour.
func (s *ksgState) radius() uint64 {
	return max(math.Float64bits(s.dx), math.Float64bits(s.dy))
}

// psiCounts returns ψ(n_x) + ψ(n_y) with each count floored at 1. In exact
// arithmetic the k-th-NN projection keeps both counts ≥ 1, but fp boundary
// rounding on degenerate data (values many orders of magnitude apart) can
// leave only the point itself inside its interval. The floor is applied
// here, when the digammas are formed, and never to stored counts: the
// incremental estimator adjusts stored counts by ±1, and a floored count
// would drift away from a fresh one.
func psiCounts(nx, ny int) float64 {
	return mathx.DigammaInt(max(nx, 1)) + mathx.DigammaInt(max(ny, 1))
}

// allPairs is the all-pairs KSG kernel: it computes one point's state by
// scanning every point of the window, with no index to build. Its only
// scratch is an insertion network of the n ≥ k nearest points, kept in
// fixed arrays so a kernel declared as a local variable lives on the stack.
// Estimates use n = k; an incremental reload widens the network to the
// neighbour-list length and keeps its entries as the point's list.
//
// The kernel reproduces the k-d tree path bit for bit:
//
//   - Samples are finite, so distances are non-negative and never NaN (an
//     overflowing difference is +Inf), and their IEEE bit patterns order
//     like their values; the network compares them as integers.
//   - The tree keeps the k best under the (distance, index) total order.
//     Candidates enter the network in index order, a candidate at or past
//     the k-th slot's distance is rejected, and an insertion shifts only
//     strictly farther slots, so a tie never displaces an earlier point:
//     the network ends holding the same k points.
//   - The projections are the same |Δx|, |Δy| of the same points, and the
//     maximum of non-negative patterns is the pattern of the maximum.
//   - A count is Σ[x − ε_x/2 ≤ x_j ≤ x + ε_x/2] over the whole window, the
//     point itself included — exactly the predicate CountWithin's two
//     binary searches evaluate on the sorted marginal.
type allPairs struct {
	dist [allPairsMax]uint64 // distance patterns of the k best, ascending
	idx  [allPairsMax]int32  // their indices
}

// signBit is the sign bit of a float64 pattern; clearing it takes |v|.
const signBit = 1 << 63

// gap returns the bit pattern of the L∞ distance between (ax, ay) and
// (bx, by). For finite coordinates the distance is never NaN, and the
// patterns of non-negative values, +Inf included, order like the values.
func gap(ax, ay, bx, by float64) uint64 {
	return max(math.Float64bits(ax-bx)&^signBit, math.Float64bits(ay-by)&^signBit)
}

// offer puts the candidate (d, id) into the ascending network (dist, ids),
// dropping its last entry; the caller has checked that d precedes it.
// Candidates must arrive in ascending id order: an insertion shifts only
// strictly farther entries, so a tie never displaces an earlier id.
func offer(dist []uint64, ids []int32, d uint64, id int32) {
	s := len(dist) - 1
	for ; s > 0 && dist[s-1] > d; s-- {
		dist[s], ids[s] = dist[s-1], ids[s-1]
	}
	dist[s], ids[s] = d, id
}

// point returns point i's state in the window (xs, ys), for
// k ≤ n < len(xs) ≤ allPairsMax and finite samples, and leaves point i's n
// nearest other points in a.idx[:n], their distance patterns in a.dist[:n].
func (a *allPairs) point(xs, ys []float64, k, n, i int) ksgState {
	ys = ys[:len(xs)]
	xi, yi := xs[i], ys[i]

	// The passes stay inline rather than call the plane's projections and
	// countWithin: with the calls, the kernel read 3–10 % slower at m = 16
	// to 128 in five alternated BenchmarkKSGCrossover runs.

	// Pass 1: the n nearest other points. The sentinel pattern exceeds
	// every distance, +Inf included, so the first n candidates all enter.
	dist, idx := a.dist[:n], a.idx[:n]
	for s := range dist {
		dist[s] = math.MaxUint64
	}
	last := uint64(math.MaxUint64)
	for j := range xs {
		d := gap(xs[j], ys[j], xi, yi)
		if d >= last || j == i {
			continue
		}
		offer(dist, idx, d, int32(j))
		last = dist[n-1]
	}

	// The per-axis maximum projections of the k best.
	var bx, by uint64
	for _, j := range idx[:k] {
		bx = max(bx, math.Float64bits(xs[j]-xi)&^signBit)
		by = max(by, math.Float64bits(ys[j]-yi)&^signBit)
	}
	dx, dy := math.Float64frombits(bx), math.Float64frombits(by)
	x1, x2, y1, y2 := xi-dx, xi+dx, yi-dy, yi+dy

	// Pass 2: the closed-interval counts over the whole window. x1 ≤ x2, so
	// a value is inside exactly when both bounds agree on it.
	var cx, cy int32
	for j, x := range xs {
		y := ys[j]
		if (x1 <= x) == (x <= x2) {
			cx++
		}
		if (y1 <= y) == (y <= y2) {
			cy++
		}
	}
	return ksgState{
		dx: dx, dy: dy,
		// The counts include the point's own coordinate; Kraskov's n_x,
		// n_y exclude it.
		nx: cx - 1, ny: cy - 1,
	}
}
