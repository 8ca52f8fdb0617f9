package knn

import "fmt"

// Engine is the formal contract between the KSG estimator and a k-NN
// backend: build over a point set, answer the estimator's batched
// self-queries, and serve the marginal range counts of Eq. (2). It extends
// the raw Index interface with the two things the estimator actually needs —
// a rebuild entry point that reuses internal scratch, and per-axis interval
// counts.
//
// Contracts:
//
//   - Build (re)indexes pts in place, reusing any internal arenas from
//     earlier builds; a warm engine must not allocate on same-sized point
//     sets (the PR-5 hot-path guarantee). xs and ys are the per-axis
//     coordinate views of pts (pts[i] == Point{xs[i], ys[i]}); engines use
//     them for marginal structures without re-deriving. The slices stay
//     valid until the next Build.
//   - SelfKNearest(i, k) is the batched-query path: it answers
//     KNearest(pts[i], k, exclude=i) for the indexed point i, amortizing
//     result buffers across the calls of one estimation pass. The returned
//     slice is owned by the engine and valid until the next SelfKNearest or
//     Build.
//   - Neighbour lists obey the deterministic (distance, index) total order:
//     ties at the k-th distance are broken by ascending point index, so the
//     selected SET — not just its distances — is identical across engines
//     and candidate visit orders. Every engine is exact and agrees with
//     Brute bit for bit; the differential suite enforces this.
//   - CountX(x, d) returns the number of indexed points p with |p.X − x| ≤ d
//     over the full multiset — including the query point's own coordinate
//     when it is indexed; CountY is the Y-axis analogue.
type Engine interface {
	Build(pts []Point, xs, ys []float64)
	SelfKNearest(i, k int) []Neighbor
	CountX(x, d float64) int
	CountY(y, d float64) int
	Len() int
}

// Config carries an engine's construction parameters.
type Config struct {
	// K is the neighbour count the engine will serve. The current engines
	// need no build-time tuning from it.
	K int
}

// NewEngine constructs the named engine: "kdtree" (the exact bucketed k-d
// tree, the default) or "brute" (the linear-scan reference). Other names
// return an error.
func NewEngine(name string, cfg Config) (Engine, error) {
	switch name {
	case "kdtree":
		return &kdtreeEngine{tree: NewKDTree(nil)}, nil
	case "brute":
		return &bruteEngine{}, nil
	}
	return nil, fmt.Errorf("knn: unknown engine %q (want kdtree or brute)", name)
}

// marginals holds the per-axis sorted multisets every engine serves interval
// counts from; embedding it gives each engine the exact CountX/CountY pair.
type marginals struct {
	xs, ys *OrderedMultiset
}

func (m *marginals) build(xs, ys []float64) {
	if m.xs == nil {
		m.xs = NewOrderedMultiset(nil)
		m.ys = NewOrderedMultiset(nil)
	}
	m.xs.Reset(xs)
	m.ys.Reset(ys)
}

// CountX implements Engine.
func (m *marginals) CountX(x, d float64) int { return m.xs.CountWithin(x, d) }

// CountY implements Engine.
func (m *marginals) CountY(y, d float64) int { return m.ys.CountWithin(y, d) }

// kdtreeEngine wraps the bucketed static 2-d tree — the default.
type kdtreeEngine struct {
	marginals
	tree *KDTree
	buf  []Neighbor
}

func (e *kdtreeEngine) Build(pts []Point, xs, ys []float64) {
	e.tree.Reset(pts)
	e.build(xs, ys)
}

func (e *kdtreeEngine) SelfKNearest(i, k int) []Neighbor {
	nn := e.tree.KNearestInto(e.tree.pts[i], k, i, e.buf)
	e.buf = nn[:0]
	return nn
}

func (e *kdtreeEngine) Len() int { return e.tree.Len() }

// bruteEngine scans the caller's per-axis coordinate slices directly: no
// pointer chasing, two sequential streams, and the same (distance, index)
// heap as the tree.
type bruteEngine struct {
	marginals
	xs, ys []float64
	buf    []Neighbor
}

func (e *bruteEngine) Build(pts []Point, xs, ys []float64) {
	e.xs, e.ys = xs, ys
	e.build(xs, ys)
}

func (e *bruteEngine) SelfKNearest(i, k int) []Neighbor {
	nn := e.knearest(Point{X: e.xs[i], Y: e.ys[i]}, k, i, e.buf)
	e.buf = nn[:0]
	return nn
}

func (e *bruteEngine) knearest(q Point, k, exclude int, buf []Neighbor) []Neighbor {
	if k <= 0 {
		return nil
	}
	h := maxHeap(buf[:0])
	xs, ys := e.xs, e.ys
	for i := range xs {
		if i == exclude {
			continue
		}
		h.push(Neighbor{Index: i, Dist: chebyshevCoords(xs[i], ys[i], q.X, q.Y)}, k)
	}
	h.sortInPlace()
	return h
}

func (e *bruteEngine) Len() int { return len(e.xs) }
