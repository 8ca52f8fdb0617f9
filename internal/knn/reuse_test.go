package knn

import (
	"math/rand"
	"testing"
)

// reusePoints generates a point set whose coordinates are quantized onto a
// coarse lattice, so duplicate coordinates — and therefore distance ties —
// occur constantly. The (distance, index) total order must make reused and
// fresh indexes agree EXACTLY on such data, not just up to tie permutation.
func reusePoints(rng *rand.Rand, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{
			X: float64(rng.Intn(12)) * 0.25,
			Y: float64(rng.Intn(12)) * 0.25,
		}
	}
	return pts
}

// TestResetReuseMatchesFresh is the property test for the scratch-reuse
// contract: an index or multiset that has been Reset onto a new point set
// answers every query exactly like a freshly constructed one, across many
// randomized rounds with heavy ties and varying sizes.
func TestResetReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	reusedTree := NewKDTree(nil)
	reusedBrute := NewBrute(nil)
	reusedSet := NewOrderedMultiset(nil)
	var buf []Neighbor

	for round := 0; round < 60; round++ {
		n := 5 + rng.Intn(120)
		k := 1 + rng.Intn(6)
		pts := reusePoints(rng, n)

		reusedTree.Reset(pts)
		freshTree := NewKDTree(pts)
		reusedBrute.Reset(pts)
		freshBrute := NewBrute(pts)

		for i := range pts {
			// Arbitrary query points: off-lattice, nothing excluded.
			q := Point{X: pts[i].X + 0.1, Y: pts[i].Y}
			if got, want := reusedTree.KNearest(q, k, -1), freshBrute.KNearest(q, k, -1); !neighborsEqual(want, got) {
				t.Fatalf("round %d probe %v (n=%d k=%d): reused kdtree = %v, brute = %v",
					round, q, n, k, got, want)
			}
			want := freshTree.KNearest(pts[i], k, i)
			for name, got := range map[string][]Neighbor{
				"reused kdtree": reusedTree.KNearestInto(pts[i], k, i, buf),
				"fresh brute":   freshBrute.KNearest(pts[i], k, i),
				"reused brute":  reusedBrute.KNearestInto(pts[i], k, i, nil),
			} {
				if !neighborsEqual(want, got) {
					t.Fatalf("round %d query %d (n=%d k=%d): %s = %v, fresh kdtree = %v",
						round, i, n, k, name, got, want)
				}
			}
			buf = reusedTree.KNearestInto(pts[i], k, i, buf)[:0]
		}

		vals := make([]float64, n)
		for i, p := range pts {
			vals[i] = p.X
		}
		reusedSet.Reset(vals)
		freshSet := NewOrderedMultiset(vals)
		if reusedSet.Len() != freshSet.Len() || reusedSet.Min() != freshSet.Min() || reusedSet.Max() != freshSet.Max() {
			t.Fatalf("round %d: multiset shape diverged after Reset", round)
		}
		for q := 0; q < 20; q++ {
			center := rng.Float64() * 3
			d := rng.Float64()
			if got, want := reusedSet.CountWithin(center, d), freshSet.CountWithin(center, d); got != want {
				t.Fatalf("round %d: CountWithin(%v, %v) reused=%d fresh=%d", round, center, d, got, want)
			}
		}
	}
}

// neighborsEqual compares neighbour lists exactly — the deterministic
// (distance, index) tie-break makes the selected set and its order
// well-defined, so Float equality is the contract, not a test fragility.
func neighborsEqual(a, b []Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		// Exact float equality is deliberate: the determinism contract across
		// backends and reuse is bit-identity. (The linter does not parse test
		// files, so no allow directive is needed.)
		if a[i].Index != b[i].Index || a[i].Dist != b[i].Dist {
			return false
		}
	}
	return true
}

// TestResetAllocs pins the allocation budget of the Reset-and-refill cycle:
// after one warm-up round, re-using a kd-tree or multiset on a same-sized
// point set must not touch the heap.
func TestResetAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	pts := reusePoints(rng, 400)
	vals := make([]float64, len(pts))
	for i, p := range pts {
		vals[i] = p.X
	}

	tree := NewKDTree(pts)
	var buf []Neighbor
	buf = tree.KNearestInto(pts[0], 4, 0, buf)[:0]
	if got := testing.AllocsPerRun(20, func() {
		tree.Reset(pts)
		buf = tree.KNearestInto(pts[7], 4, 7, buf)[:0]
		buf = tree.KNearestInto(Point{X: 1.1, Y: 0.6}, 4, -1, buf)[:0]
	}); got != 0 {
		t.Errorf("kd-tree Reset+query allocates %v/run, want 0", got)
	}

	set := NewOrderedMultiset(vals)
	if got := testing.AllocsPerRun(20, func() {
		set.Reset(vals)
		_ = set.CountWithin(0.5, 0.25)
	}); got != 0 {
		t.Errorf("multiset Reset+count allocates %v/run, want 0", got)
	}
}

func benchPoints(n int) []Point {
	rng := rand.New(rand.NewSource(5))
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.NormFloat64(), Y: rng.NormFloat64()}
	}
	return pts
}

func BenchmarkKDTreeReset(b *testing.B) {
	pts := benchPoints(500)
	tree := NewKDTree(pts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Reset(pts)
	}
}

func BenchmarkOrderedMultisetReset(b *testing.B) {
	pts := benchPoints(500)
	vals := make([]float64, len(pts))
	for i, p := range pts {
		vals[i] = p.X
	}
	set := NewOrderedMultiset(vals)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set.Reset(vals)
	}
}

func BenchmarkKNearest(b *testing.B) {
	pts := benchPoints(500)
	tree := NewKDTree(pts)
	brute := NewBrute(pts)
	for _, bc := range []struct {
		name string
		idx  Index
	}{{"kdtree", tree}, {"brute", brute}} {
		b.Run(bc.name, func(b *testing.B) {
			var buf []Neighbor
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := i % len(pts)
				buf = bc.idx.KNearestInto(pts[q], 4, q, buf)[:0]
			}
		})
	}
}
