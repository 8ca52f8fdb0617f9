// Package baseline implements the classical statistical baseline of the
// paper's effectiveness evaluation: the Pearson Correlation Coefficient
// (Pearson 1895) and a sliding-window PCC detector. PCC captures linear
// dependence only, which is exactly why it fails on the non-linear relations
// of Table 1 — reproducing that failure is the point of the baseline.
package baseline

import (
	"fmt"
	"math"
	"slices"

	"tycos/internal/window"
)

// Pearson returns the sample Pearson correlation coefficient r ∈ [−1, 1]
// between x and y. Degenerate inputs (length < 2, zero variance) return 0.
//
// Constancy is detected on the values themselves (min == max), not on the
// centred sum of squares: for a constant series the summed (v−mean)² terms
// can round to a tiny nonzero float, in which case the naive sxx == 0 guard
// misfires and the quotient of two rounding errors comes out as ±1 — a
// constant series scoring as perfectly correlated garbage.
func Pearson(x, y []float64) float64 {
	n := len(x)
	if n != len(y) || n < 2 {
		return 0
	}
	if constant(x) || constant(y) {
		return 0
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	//lint:allow floateq exact zero-variance sentinel guarding the division; any nonzero sum of squares is valid
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// constant reports whether every value of v equals the first (the exact
// zero-variance case; length ≤ 1 counts as constant).
func constant(v []float64) bool {
	for i := 1; i < len(v); i++ {
		//lint:allow floateq exact constancy test; approximate equality would misclassify genuinely varying data
		if v[i] != v[0] {
			return false
		}
	}
	return true
}

// SlideStats counts the work of one SlidingPCC pass: Windows is the number
// of window positions evaluated, Degenerate the positions skipped under the
// degenerate-window contract below.
type SlideStats struct {
	Windows    int
	Degenerate int
}

// SlidingPCC slides a fixed-size window over the aligned pair (no time
// delay — PCC-based procedures in the literature assume simultaneity) and
// returns every maximal run of positions whose |r| meets the threshold,
// merged into scored windows carrying the strongest |r| seen inside.
func SlidingPCC(x, y []float64, size int, threshold float64) ([]window.Scored, error) {
	out, _, err := SlidingPCCDetail(x, y, size, threshold)
	return out, err
}

// SlidingPCCDetail is SlidingPCC with the pass statistics exposed.
//
// Degenerate-window contract: a position where either side of the window is
// constant (zero variance) — or where r is otherwise non-finite — carries no
// correlation evidence. Such a position never opens or extends a run (an
// open run is closed, exactly as a below-threshold position would), is
// counted in SlideStats.Degenerate, and contributes no score. Callers using
// the maximum |r| as a pruning statistic (the discovery pre-screen) rely on
// this: without it a flatlined sensor would score |r| = 1 through floating-
// point rounding and poison the prune decision.
func SlidingPCCDetail(x, y []float64, size int, threshold float64) ([]window.Scored, SlideStats, error) {
	var stats SlideStats
	if len(x) != len(y) {
		return nil, stats, fmt.Errorf("baseline: length mismatch %d vs %d", len(x), len(y))
	}
	var mx, my WindowMoments
	if err := mx.Reset(x, size); err != nil {
		return nil, stats, err
	}
	if err := my.Reset(y, size); err != nil {
		return nil, stats, err
	}
	rs := make([]float64, len(x)-size+1)
	AbsR(rs, &mx, 0, &my, 0)
	var out []window.Scored
	open := false
	var cur window.Scored
	for i, r := range rs {
		stats.Windows++
		end := i + size - 1
		if math.IsNaN(r) {
			stats.Degenerate++
			if open {
				out = append(out, cur)
				open = false
			}
			continue
		}
		if r >= threshold {
			if !open {
				cur = window.Scored{Window: window.Window{Start: i, End: end}, MI: r}
				open = true
			} else {
				cur.End = end
				if r > cur.MI {
					cur.MI = r
				}
			}
			continue
		}
		if open {
			out = append(out, cur)
			open = false
		}
	}
	if open {
		out = append(out, cur)
	}
	return out, stats, nil
}

// WindowMoments holds, for every start of a fixed-size window over one
// series, the window's mean, its centred sum of squares Σ(v−mean)² and
// whether it is constant. Each is computed with Pearson's arithmetic in
// Pearson's summation order, so AbsR scores a window pair from two series'
// moments with one cross-product pass, Σ(x−m_x)(y−m_y), and reproduces
// math.Abs(Pearson(…)) bit for bit. Reset reuses the slices: warm moments
// allocate nothing.
type WindowMoments struct {
	v    []float64
	size int
	mean []float64 // mean[a] is the mean of v[a : a+size]
	ss   []float64 // ss[a] is the window's centred sum of squares
	flat []bool    // flat[a]: every value of the window equals the first
}

// Reset computes the moments of every size-sample window of v. v is kept,
// not copied: it must not change while the moments are in use.
func (m *WindowMoments) Reset(v []float64, size int) error {
	if size < 2 || size > len(v) {
		return fmt.Errorf("baseline: window size %d out of range (n=%d)", size, len(v))
	}
	starts := len(v) - size + 1
	m.v, m.size = v, size
	m.mean = slices.Grow(m.mean[:0], starts)[:starts]
	m.ss = slices.Grow(m.ss[:0], starts)[:starts]
	m.flat = slices.Grow(m.flat[:0], starts)[:starts]
	// run is the length of the run of equal values ending at j, so the
	// window ending at j is constant iff run ≥ size: one pass instead of a
	// scan per window.
	run := 0
	for j := range v {
		//lint:allow floateq exact constancy test over consecutive samples; see Pearson's degenerate-input contract
		if j > 0 && v[j] == v[j-1] {
			run++
		} else {
			run = 1
		}
		if a := j - size + 1; a >= 0 {
			m.flat[a] = run >= size
		}
	}
	for a := range m.mean {
		w := v[a : a+size]
		var s float64
		for _, x := range w {
			s += x
		}
		mean := s / float64(size)
		var ss float64
		for _, x := range w {
			d := x - mean
			ss += d * d
		}
		m.mean[a], m.ss[a] = mean, ss
	}
	return nil
}

// AbsR sets dst[i] to |r| between x's window starting at a+i and y's
// window starting at b+i, for every i < len(dst); both moments must share
// one window size. A degenerate pair — either window constant, or r
// non-finite — reads NaN (SlidingPCCDetail's contract). Every other value
// equals math.Abs(Pearson(…)) of the two windows bit for bit.
func AbsR(dst []float64, x *WindowMoments, a int, y *WindowMoments, b int) {
	size := x.size
	i := 0
	// Four positions at a time. Their cross-products are independent sums,
	// so interleaving them hides the latency of each addition; each sum
	// still adds its own terms in Pearson's order, so no bit changes.
	for ; i+4 <= len(dst); i += 4 {
		ia, ib := a+i, b+i
		x0, y0 := x.v[ia:ia+size], y.v[ib:ib+size]
		x1, y1 := x.v[ia+1:ia+1+size], y.v[ib+1:ib+1+size]
		x2, y2 := x.v[ia+2:ia+2+size], y.v[ib+2:ib+2+size]
		x3, y3 := x.v[ia+3:ia+3+size], y.v[ib+3:ib+3+size]
		mx0, mx1, mx2, mx3 := x.mean[ia], x.mean[ia+1], x.mean[ia+2], x.mean[ia+3]
		my0, my1, my2, my3 := y.mean[ib], y.mean[ib+1], y.mean[ib+2], y.mean[ib+3]
		var s0, s1, s2, s3 float64
		for j := range x0 {
			dx, dy := x0[j]-mx0, y0[j]-my0
			s0 += dx * dy
			dx, dy = x1[j]-mx1, y1[j]-my1
			s1 += dx * dy
			dx, dy = x2[j]-mx2, y2[j]-my2
			s2 += dx * dy
			dx, dy = x3[j]-mx3, y3[j]-my3
			s3 += dx * dy
		}
		dst[i] = pairR(x, ia, y, ib, s0)
		dst[i+1] = pairR(x, ia+1, y, ib+1, s1)
		dst[i+2] = pairR(x, ia+2, y, ib+2, s2)
		dst[i+3] = pairR(x, ia+3, y, ib+3, s3)
	}
	for ; i < len(dst); i++ {
		ia, ib := a+i, b+i
		xw, yw := x.v[ia:ia+size], y.v[ib:ib+size]
		mx, my := x.mean[ia], y.mean[ib]
		var sxy float64
		for j := range xw {
			dx, dy := xw[j]-mx, yw[j]-my
			sxy += dx * dy
		}
		dst[i] = pairR(x, ia, y, ib, sxy)
	}
}

// pairR finishes |r| for x's window at a and y's at b from their
// cross-product sxy, as Pearson does: NaN for a degenerate pair.
func pairR(x *WindowMoments, a int, y *WindowMoments, b int, sxy float64) float64 {
	if x.flat[a] || y.flat[b] {
		return math.NaN()
	}
	sxx, syy := x.ss[a], y.ss[b]
	//lint:allow floateq exact zero-variance sentinel guarding the division, as in Pearson
	if sxx == 0 || syy == 0 {
		return 0
	}
	r := math.Abs(sxy / math.Sqrt(sxx*syy))
	if math.IsInf(r, 0) {
		return math.NaN()
	}
	return r
}
