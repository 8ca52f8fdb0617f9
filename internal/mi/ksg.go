package mi

import (
	"fmt"
	"math"

	"tycos/internal/knn"
	"tycos/internal/mathx"
)

// Backend selects the k-nearest-neighbour structure used inside the KSG
// estimator (the ablation of Lemma 2's complexity discussion) for windows
// above allPairsMax samples; smaller windows take the all-pairs kernel on
// either backend.
type Backend int

const (
	// BackendKDTree builds a bucketed k-d tree per estimate: O(m log m)
	// expected.
	BackendKDTree Backend = iota
	// BackendBrute scans linearly per query: O(m²), the exact reference the
	// tree is validated against.
	BackendBrute
)

// String returns the backend's name.
func (b Backend) String() string {
	switch b {
	case BackendKDTree:
		return "kdtree"
	case BackendBrute:
		return "brute"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// KSG is the Kraskov–Stögbauer–Grassberger estimator, algorithm 2 (the
// variant the paper uses in Eq. (2)/(3)): per point, the distance to its
// k-th nearest neighbour under L∞ is projected on each axis, the marginal
// neighbour counts n_x, n_y within those projections are taken, and
//
//	I = ψ(k) − 1/k − ⟨ψ(n_x) + ψ(n_y)⟩ + ψ(m)
//
// (Kraskov et al. 2004, Eq. (9)), where n_x, n_y count the OTHER samples
// whose coordinate lies within the closed marginal interval of half-width
// ε_x/2 = max|Δx| over the kNN set (resp. ε_y/2) — the counts exclude the
// point itself. Note algorithm 1 (Eq. (8)) is the variant that evaluates
// ψ(n_x+1); it pairs that with a single strict L∞ radius and NO −1/k term,
// so the two conventions must never be mixed. Computationally the interval
// count over the full multiset includes the query's own coordinate, so
// n_x = count − 1; with k ≥ 1 the neighbour realising the max projection
// lies inside the interval, so count ≥ 2 and n_x ≥ 1 in exact arithmetic.
// A max(count−1, 1) floor guards the digamma against a count collapsing to
// 1 under floating-point boundary rounding on degenerate data.
//
// The zero value is not usable; construct with NewKSG, or Renew one.
//
// A KSG carries a work counter (Estimates) and per-instance reusable scratch
// (the point buffer and the engine's internal arenas persist across Estimate
// calls, making the steady state allocation-free). It is therefore not safe
// for concurrent use; every searcher owns its own instance. The engine is
// built on the first window above allPairsMax, so an estimator that only
// sees windows the kernel serves never builds one.
type KSG struct {
	k         int
	backend   Backend
	engine    knn.Engine // nil until engineSum first needs it
	estimates int

	// Reusable scratch, grown on first use and retained across calls.
	pts []knn.Point
}

// DefaultK is the nearest-neighbour count used when none is specified; k=4
// is the customary KSG choice balancing bias and variance.
const DefaultK = 4

// NewKSG returns a KSG estimator with the given neighbour count (k ≥ 1;
// values below 1 become DefaultK) and backend. Unknown Backend values fall
// back to the kd-tree.
func NewKSG(k int, backend Backend) *KSG {
	if k < 1 {
		k = DefaultK
	}
	return &KSG{k: k, backend: backend}
}

// Renew sets e up as NewKSG(k, backend) would, so that a KSG can be a
// value (a zero one included) inside a longer-lived struct: a renewed
// estimator gives the bits of a new one and counts its Estimates from zero.
// It keeps its point buffer, and its engine when k and the backend are
// unchanged.
func (e *KSG) Renew(k int, backend Backend) {
	if k < 1 {
		k = DefaultK
	}
	if k != e.k || backend != e.backend {
		e.engine = nil
	}
	e.k, e.backend, e.estimates = k, backend, 0
}

// Name implements Estimator.
func (e *KSG) Name() string { return fmt.Sprintf("ksg(k=%d,%s)", e.k, e.backend) }

// K returns the configured neighbour count.
func (e *KSG) K() int { return e.k }

// Estimate implements Estimator. It requires len(x) > k and finite samples.
// Windows of up to allPairsMax samples are estimated by the all-pairs
// kernel, larger ones through the engine; both give the same estimate to
// the last bit, so neither the size nor the backend shows in the result.
func (e *KSG) Estimate(x, y []float64) (float64, error) {
	if err := checkPair(x, y); err != nil {
		return 0, err
	}
	m := len(x)
	if m <= e.k {
		return 0, fmt.Errorf("%w: m=%d, k=%d", ErrTooFewSamples, m, e.k)
	}
	if err := checkFinite(x, y); err != nil {
		return 0, err
	}
	var sum float64
	if KernelServes(m) {
		sum = e.allPairsSum(x, y)
	} else {
		sum = e.engineSum(x, y)
	}
	e.estimates++
	return ksgMI(e.k, m, sum), nil
}

// checkFinite rejects a NaN or ±Inf sample. The kernel and the incremental
// neighbour lists order distances by their bit patterns, which holds for
// finite samples only; NaN would also poison every path's comparisons.
func checkFinite(x, y []float64) error {
	for i := range x {
		if !finite(x[i], y[i]) {
			return fmt.Errorf("mi: non-finite sample (%v, %v) at index %d", x[i], y[i], i)
		}
	}
	return nil
}

// finite reports whether neither coordinate is NaN or ±Inf.
func finite(x, y float64) bool {
	return math.Abs(x) <= math.MaxFloat64 && math.Abs(y) <= math.MaxFloat64
}

// ksgMI completes Eq. (9) for m points from the sum of the per-point
// digamma terms ψ(n_x) + ψ(n_y).
func ksgMI(k, m int, sum float64) float64 {
	return mathx.DigammaInt(k) - 1/float64(k) - sum/float64(m) + mathx.Digamma(float64(m))
}

// allPairsSum returns Σ_i ψ(n_x,i) + ψ(n_y,i) over the window, folded in
// index order, from the all-pairs kernel.
func (e *KSG) allPairsSum(x, y []float64) float64 {
	var (
		a   allPairs
		sum float64
	)
	for i := range x {
		st := a.point(x, y, e.k, e.k, i)
		sum += psiCounts(int(st.nx), int(st.ny))
	}
	return sum
}

// engineSum is allPairsSum through the engine: one Build per estimate (the
// engine re-indexes the window reusing its arenas, and its sorted
// marginals make the n_x, n_y interval counts O(log m)), then a k-NN
// self-query and two interval counts per point. Both engines return the
// same (distance, index) k-best sets, so the sum does not depend on the
// backend.
func (e *KSG) engineSum(x, y []float64) float64 {
	if e.engine == nil {
		name := "kdtree"
		if e.backend == BackendBrute {
			name = "brute"
		}
		eng, err := knn.NewEngine(name, knn.Config{K: e.k})
		if err != nil {
			panic(err) // unreachable: both names are built in
		}
		e.engine = eng
	}
	e.pts = e.pts[:0]
	for i := range x {
		e.pts = append(e.pts, knn.Point{X: x[i], Y: y[i]})
	}
	pts := e.pts
	e.engine.Build(pts, x, y)
	var sum float64
	for i := range pts {
		nn := e.engine.SelfKNearest(i, e.k)
		dx, dy := marginalRadii(pts[i], pts, nn)
		// The closed-interval counts include the query's own coordinate;
		// subtracting it yields Kraskov's n_x, n_y (Eq. (9) counts exclude
		// the point itself).
		sum += psiCounts(e.engine.CountX(x[i], dx)-1, e.engine.CountY(y[i], dy)-1)
	}
	return sum
}

// Estimates returns the number of successful estimations this instance has
// performed — the observability layer reports it as the scorer-level work
// counter behind Stats.MIBatch.
func (e *KSG) Estimates() int { return e.estimates }

// marginalRadii returns the per-dimension projections (dx, dy) of the
// k-nearest-neighbour set of q: the largest |Δx| and |Δy| among the
// neighbours (KSG algorithm 2's ε_x/2 and ε_y/2).
func marginalRadii(q knn.Point, pts []knn.Point, nn []knn.Neighbor) (dx, dy float64) {
	for _, nb := range nn {
		p := pts[nb.Index]
		if d := math.Abs(p.X - q.X); d > dx {
			dx = d
		}
		if d := math.Abs(p.Y - q.Y); d > dy {
			dy = d
		}
	}
	return dx, dy
}

// GaussianMI returns the analytic mutual information −½·ln(1−ρ²) of a
// bivariate Gaussian with correlation ρ; it is the ground truth the
// estimators are validated against in tests and examples.
//
// A perfectly correlated pair (|ρ| ≥ 1) has infinite mutual information; the
// function returns +Inf explicitly for that range instead of leaking it from
// log(0) (and NaN from |ρ| > 1), so callers comparing against the analytic
// value can guard with math.IsInf. The log1p form keeps precision for small
// |ρ|, where 1−ρ² would cancel.
func GaussianMI(rho float64) float64 {
	if rho <= -1 || rho >= 1 {
		return math.Inf(1)
	}
	return -0.5 * math.Log1p(-rho*rho)
}
