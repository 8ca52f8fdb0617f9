package knn

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func randomPoints(rng *rand.Rand, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.NormFloat64() * 10, Y: rng.NormFloat64() * 10}
	}
	return pts
}

func TestChebyshev(t *testing.T) {
	if Chebyshev(Point{0, 0}, Point{3, -4}) != 4 {
		t.Error("L∞ distance wrong")
	}
	if Chebyshev(Point{1, 1}, Point{1, 1}) != 0 {
		t.Error("self distance must be 0")
	}
}

func TestBruteKNearestSmall(t *testing.T) {
	pts := []Point{{0, 0}, {1, 0}, {5, 5}, {0.5, 0.5}, {-1, 0}}
	b := NewBrute(pts)
	nn := b.KNearest(pts[0], 2, 0)
	if len(nn) != 2 {
		t.Fatalf("got %d neighbours", len(nn))
	}
	if nn[0].Index != 3 || nn[1].Index != 1 && nn[1].Index != 4 {
		t.Errorf("unexpected neighbours %+v", nn)
	}
	if nn[0].Dist != 0.5 || nn[1].Dist != 1 {
		t.Errorf("distances %+v", nn)
	}
	// k larger than available points returns all others.
	if got := len(b.KNearest(pts[0], 10, 0)); got != 4 {
		t.Errorf("oversized k returned %d", got)
	}
	if b.KNearest(pts[0], 0, 0) != nil {
		t.Error("k=0 must return nil")
	}
}

// distSet extracts the multiset of distances (order-insensitive comparison:
// equidistant neighbours may be returned in any index order).
func distSet(nn []Neighbor) []float64 {
	out := make([]float64, len(nn))
	for i, n := range nn {
		out[i] = n.Dist
	}
	sort.Float64s(out)
	return out
}

func sameDistances(a, b []Neighbor) bool {
	da, db := distSet(a), distSet(b)
	if len(da) != len(db) {
		return false
	}
	for i := range da {
		if math.Abs(da[i]-db[i]) > 1e-12 {
			return false
		}
	}
	return true
}

func TestKDTreeMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(200)
		pts := randomPoints(rng, n)
		brute := NewBrute(pts)
		tree := NewKDTree(pts)
		if tree.Len() != n {
			t.Fatalf("tree len %d != %d", tree.Len(), n)
		}
		for q := 0; q < 10; q++ {
			i := rng.Intn(n)
			k := 1 + rng.Intn(8)
			bn := brute.KNearest(pts[i], k, i)
			tn := tree.KNearest(pts[i], k, i)
			if !sameDistances(bn, tn) {
				t.Fatalf("trial %d: kd-tree mismatch for point %d k=%d:\nbrute %+v\ntree  %+v", trial, i, k, bn, tn)
			}
		}
	}
}

// TestNewGridForDegenerate keeps the degenerate samples NewGridFor was fed
// before the grid was removed: identical points (zero span) and an empty
// sample. The cell derivation falls back to 1, and the k-NN indexes still
// answer on zero span.
func TestNewGridForDegenerate(t *testing.T) {
	pts := []Point{{1, 1}, {1, 1}, {1, 1}}
	if got := GridCellFor(pts, 2); got != 1 {
		t.Errorf("identical points: GridCellFor = %v, want fallback 1", got)
	}
	if got := GridCellFor(nil, 3); got != 1 {
		t.Errorf("empty sample: GridCellFor = %v, want fallback 1", got)
	}
	for name, nn := range map[string][]Neighbor{
		"kdtree": NewKDTree(pts).KNearest(pts[0], 2, 0),
		"brute":  NewBrute(pts).KNearest(pts[0], 2, 0),
	} {
		if len(nn) != 2 || nn[0].Dist != 0 || nn[1].Dist != 0 {
			t.Errorf("%s: degenerate kNN = %+v", name, nn)
		}
	}
}

func TestBruteMarginalCounts(t *testing.T) {
	pts := []Point{{0, 0}, {1, 5}, {2, -3}, {-0.5, 0.2}}
	b := NewBrute(pts)
	if got := b.CountWithinX(0, 1, 0); got != 2 { // 1 and -0.5
		t.Errorf("CountWithinX = %d", got)
	}
	if got := b.CountWithinY(0, 1, 0); got != 1 { // 0.2 only
		t.Errorf("CountWithinY = %d", got)
	}
}

func TestOrderedMultiset(t *testing.T) {
	m := NewOrderedMultiset([]float64{3, 1, 2, 2})
	if m.Len() != 4 || m.Min() != 1 || m.Max() != 3 {
		t.Fatalf("init state wrong: %+v", m)
	}
	if got := m.CountWithin(2, 0); got != 2 {
		t.Errorf("duplicates count = %d", got)
	}
	m.Insert(2.5)
	if got := m.CountWithin(2, 0.5); got != 3 {
		t.Errorf("count after insert = %d", got)
	}
	if !m.Remove(2) || m.CountWithin(2, 0) != 1 {
		t.Error("remove of duplicate must delete exactly one")
	}
	if m.Remove(99) {
		t.Error("removing absent value must fail")
	}
}

func TestOrderedMultisetMatchesBruteProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var raw []float64
		for i := 0; i < 80; i++ {
			raw = append(raw, math.Round(rng.NormFloat64()*4)/2)
		}
		m := NewOrderedMultiset(raw)
		for trial := 0; trial < 20; trial++ {
			c := raw[rng.Intn(len(raw))]
			d := math.Abs(rng.NormFloat64())
			want := 0
			for _, v := range raw {
				if math.Abs(v-c) <= d {
					want++
				}
			}
			if m.CountWithin(c, d) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestBackendsHandleDuplicatePoints(t *testing.T) {
	// Tied coordinates are the worst case for spatial structures; both
	// backends must agree on distances (composition may differ).
	pts := make([]Point, 0, 60)
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 20; i++ {
		p := Point{math.Round(rng.NormFloat64()), math.Round(rng.NormFloat64())}
		pts = append(pts, p, p, p) // triplicate
	}
	brute := NewBrute(pts)
	tree := NewKDTree(pts)
	for q := 0; q < 20; q++ {
		i := rng.Intn(len(pts))
		bn := brute.KNearest(pts[i], 5, i)
		tn := tree.KNearest(pts[i], 5, i)
		if !sameDistances(bn, tn) {
			t.Fatalf("duplicate-point mismatch at %d:\nbrute %v\ntree  %v", i, bn, tn)
		}
	}
}

func TestKDTreeEmptyAndSingle(t *testing.T) {
	if NewKDTree(nil).KNearest(Point{0, 0}, 3, -1) != nil {
		t.Error("empty tree must return nil")
	}
	tr := NewKDTree([]Point{{1, 2}})
	nn := tr.KNearest(Point{0, 0}, 3, -1)
	if len(nn) != 1 || nn[0].Index != 0 {
		t.Errorf("single-point tree query = %v", nn)
	}
	if got := tr.KNearest(Point{0, 0}, 3, 0); got != nil && len(got) != 0 {
		t.Errorf("excluding the only point should return nothing, got %v", got)
	}
}
