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

func TestGridMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(200)
		pts := randomPoints(rng, n)
		brute := NewBrute(pts)
		grid := NewGridFor(pts, 4)
		for i, p := range pts {
			grid.Insert(i, p)
		}
		if grid.Len() != n {
			t.Fatalf("grid len %d != %d", grid.Len(), n)
		}
		for q := 0; q < 10; q++ {
			i := rng.Intn(n)
			k := 1 + rng.Intn(8)
			bn := brute.KNearest(pts[i], k, i)
			gn := grid.KNearest(pts[i], k, i)
			if !sameDistances(bn, gn) {
				t.Fatalf("trial %d: grid mismatch for point %d k=%d:\nbrute %+v\ngrid  %+v", trial, i, k, bn, gn)
			}
		}
	}
}

func TestGridInsertRemove(t *testing.T) {
	g := NewGrid(1)
	g.Insert(0, Point{0, 0})
	g.Insert(1, Point{2, 2})
	g.Insert(2, Point{0.5, 0.5})
	if g.Len() != 3 {
		t.Fatal("len after inserts")
	}
	if !g.Remove(2, Point{0.5, 0.5}) {
		t.Fatal("remove existing failed")
	}
	if g.Remove(2, Point{0.5, 0.5}) {
		t.Fatal("double remove succeeded")
	}
	nn := g.KNearest(Point{0, 0}, 1, 0)
	if len(nn) != 1 || nn[0].Index != 1 {
		t.Errorf("after removal expected neighbour 1, got %+v", nn)
	}
	// Moving an id is a remove plus an insert.
	g.Remove(1, Point{2, 2})
	g.Insert(1, Point{10, 10})
	if g.Len() != 2 {
		t.Errorf("len after move = %d", g.Len())
	}
	nn = g.KNearest(Point{0, 0}, 1, 0)
	if len(nn) != 1 || nn[0].Index != 1 || nn[0].Dist != 10 {
		t.Errorf("moved point = %+v", nn)
	}
}

func TestGridDynamicConsistencyProperty(t *testing.T) {
	// After a random interleaving of inserts and removes the grid must agree
	// with a brute-force index over the surviving points.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewGrid(2.5)
		live := map[int]Point{}
		nextID := 0
		for op := 0; op < 150; op++ {
			if len(live) == 0 || rng.Float64() < 0.6 {
				p := Point{rng.NormFloat64() * 5, rng.NormFloat64() * 5}
				g.Insert(nextID, p)
				live[nextID] = p
				nextID++
			} else {
				for id, p := range live {
					g.Remove(id, p)
					delete(live, id)
					break
				}
			}
		}
		if g.Len() != len(live) {
			return false
		}
		if len(live) < 2 {
			return true
		}
		ids := make([]int, 0, len(live))
		pts := make([]Point, 0, len(live))
		for id, p := range live {
			ids = append(ids, id)
			pts = append(pts, p)
		}
		brute := NewBrute(pts)
		q := pts[0]
		bn := brute.KNearest(q, 3, 0)
		gn := g.KNearest(q, 3, ids[0])
		return sameDistances(bn, gn)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestGridClampedBoxMatchesBrute drives the grid past its cell budget: a
// tight cluster at a small cell size plus outliers a million cells away, so
// the box cannot grow to cover them and they clamp into its border cells.
// Under interleaved inserts and removes every query must still return the
// exact (distance, id) k-best set.
func TestGridClampedBoxMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g := NewGrid(0.01)
	var pts []Point
	var live []bool
	check := func(op int) {
		t.Helper()
		var ids []int
		var sub []Point
		for id, ok := range live {
			if ok {
				ids = append(ids, id)
				sub = append(sub, pts[id])
			}
		}
		for j, id := range ids {
			for _, k := range []int{1, 4} {
				// Ascending ids keep the reference's index tie-break aligned
				// with the grid's.
				want := engineReference(sub, sub[j], k, j)
				for i := range want {
					want[i].Index = ids[want[i].Index]
				}
				if got := g.KNearest(sub[j], k, id); !neighborsEqual(want, got) {
					t.Fatalf("op %d id %d k=%d: got %v want %v", op, id, k, got, want)
				}
			}
		}
	}
	for op := 0; op < 600; op++ {
		if op%4 == 3 {
			if id := rng.Intn(len(pts)); live[id] {
				if !g.Remove(id, pts[id]) {
					t.Fatalf("op %d: remove %d failed", op, id)
				}
				live[id] = false
			}
		} else {
			p := Point{X: rng.NormFloat64(), Y: rng.NormFloat64()}
			if rng.Intn(10) == 0 {
				p.X += float64(rng.Intn(3)-1) * 1e4
				p.Y -= float64(rng.Intn(3)-1) * 1e4
			}
			g.Insert(len(pts), p)
			pts = append(pts, p)
			live = append(live, true)
		}
		if op%100 == 99 {
			check(op)
		}
	}
}

func TestNewGridForDegenerate(t *testing.T) {
	// Identical points produce zero span; grid must still work.
	pts := []Point{{1, 1}, {1, 1}, {1, 1}}
	g := NewGridFor(pts, 2)
	for i, p := range pts {
		g.Insert(i, p)
	}
	nn := g.KNearest(pts[0], 2, 0)
	if len(nn) != 2 || nn[0].Dist != 0 {
		t.Errorf("degenerate kNN = %+v", nn)
	}
	if NewGridFor(nil, 3) == nil {
		t.Error("empty sample must still build a grid")
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

func TestGridKNearestInto(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pts := randomPoints(rng, 100)
	g := NewGridFor(pts, 4)
	for i, p := range pts {
		g.Insert(i, p)
	}
	buf := make([]Neighbor, 0, 4)
	a := g.KNearestInto(pts[0], 4, 0, buf)
	b := g.KNearest(pts[0], 4, 0)
	if !sameDistances(a, b) {
		t.Errorf("KNearestInto differs from KNearest: %v vs %v", a, b)
	}
	// The buffer's backing array is reused.
	if cap(a) != cap(buf) && len(buf) == 0 && cap(buf) >= 4 {
		t.Errorf("buffer not reused: cap %d vs %d", cap(a), cap(buf))
	}
}

func TestBackendsHandleDuplicatePoints(t *testing.T) {
	// Tied coordinates are the worst case for spatial structures; all three
	// backends must agree on distances (composition may differ).
	pts := make([]Point, 0, 60)
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 20; i++ {
		p := Point{math.Round(rng.NormFloat64()), math.Round(rng.NormFloat64())}
		pts = append(pts, p, p, p) // triplicate
	}
	brute := NewBrute(pts)
	tree := NewKDTree(pts)
	grid := NewGridFor(pts, 4)
	for i, p := range pts {
		grid.Insert(i, p)
	}
	for q := 0; q < 20; q++ {
		i := rng.Intn(len(pts))
		bn := brute.KNearest(pts[i], 5, i)
		tn := tree.KNearest(pts[i], 5, i)
		gn := grid.KNearest(pts[i], 5, i)
		if !sameDistances(bn, tn) || !sameDistances(bn, gn) {
			t.Fatalf("duplicate-point mismatch at %d:\nbrute %v\ntree  %v\ngrid  %v", i, bn, tn, gn)
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
