package mi

import (
	"fmt"
	"math/rand"
	"testing"
)

// checkStatesMatchRefresh asserts that every maintained point's cached state
// equals, bit for bit, what a grid refresh (computePoint) recomputes for it.
func checkStatesMatchRefresh(t *testing.T, label string, inc *Incremental) {
	t.Helper()
	for _, id := range inc.ids {
		got := *inc.state(id)
		want := got
		inc.computePoint(id, &want)
		// Exact comparison is the contract: the bulk k-d tree pass must pick
		// the same k-best set as the grid, so radii and counts agree exactly.
		if got != want {
			t.Fatalf("%s: id %d: bulk state %+v, grid refresh %+v", label, id, got, want)
		}
	}
}

// TestReloadStatesMatchGridRefresh pins the bulk recompute: after Reload,
// every point's state (d, dx, dy, nx, ny) equals the grid refresh's
// result exactly — on continuous data, on a tied lattice and on data with
// duplicate points, with unsorted, non-contiguous ids, for a window the
// all-pairs kernel serves and one the k-d tree serves.
func TestReloadStatesMatchGridRefresh(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	cases := map[string]func(i int) (float64, float64){
		"continuous": func(int) (float64, float64) {
			x := rng.NormFloat64()
			return x, 0.6*x + 0.4*rng.NormFloat64()
		},
		"tied-lattice": func(int) (float64, float64) {
			return float64(rng.Intn(6)) * 0.25, float64(rng.Intn(6)) * 0.25
		},
		"duplicates": func(i int) (float64, float64) {
			// Runs of three identical points.
			r := rand.New(rand.NewSource(int64(i / 3)))
			return r.NormFloat64(), r.NormFloat64()
		},
	}
	inc := NewIncremental(4, 0.3)
	for _, m := range []int{40, 240} {
		for name, gen := range cases {
			ids := make([]int, m)
			xs := make([]float64, m)
			ys := make([]float64, m)
			for i, j := range rng.Perm(m) {
				ids[i] = 7 + 3*j // unsorted, with gaps
				xs[i], ys[i] = gen(i)
			}
			label := fmt.Sprintf("%s/m=%d", name, m)
			inc.Reload(ids, xs, ys)
			checkStatesMatchRefresh(t, label, inc)
			fresh := NewIncrementalBulk(4, 0.3, ids, xs, ys)
			checkStatesMatchRefresh(t, label+"/fresh", fresh)
		}
	}
}

// slabTrace drives an estimator and a live-point reference through inserts
// and removals, checking the estimate against a batch estimate over the
// survivors at every checkpoint.
type slabTrace struct {
	t    *testing.T
	inc  *Incremental
	x, y map[int]float64
	rng  *rand.Rand
}

func newSlabTrace(t *testing.T, seed int64) *slabTrace {
	return &slabTrace{
		t:   t,
		inc: NewIncremental(4, 0.4),
		x:   map[int]float64{},
		y:   map[int]float64{},
		rng: rand.New(rand.NewSource(seed)),
	}
}

func (s *slabTrace) insert(id int) {
	xv := s.rng.NormFloat64()
	yv := 0.5*xv + s.rng.NormFloat64()
	s.inc.Insert(id, xv, yv)
	s.x[id], s.y[id] = xv, yv
}

func (s *slabTrace) remove(id int) {
	if !s.inc.Remove(id) {
		s.t.Fatalf("remove %d: not maintained", id)
	}
	delete(s.x, id)
	delete(s.y, id)
}

func (s *slabTrace) check(label string) {
	s.t.Helper()
	if s.inc.Len() != len(s.x) {
		s.t.Fatalf("%s: Len %d, want %d", label, s.inc.Len(), len(s.x))
	}
	got, err := s.inc.MI()
	if err != nil {
		s.t.Fatalf("%s: %v", label, err)
	}
	want, err := batchOnSurvivors(s.x, s.y, s.inc.K())
	if err != nil {
		s.t.Fatalf("%s: %v", label, err)
	}
	if !sameBits(got, want) {
		s.t.Fatalf("%s: incremental %.17g, batch %.17g", label, got, want)
	}
	checkStatesMatchRefresh(s.t, label, s.inc)
}

// TestSlabRebaseTrajectories drives the state slab through every re-basing
// path — growth to the left, growth to the right, windows sliding far past
// the first capacity in both directions, and far jumps — against the batch
// estimate.
func TestSlabRebaseTrajectories(t *testing.T) {
	t.Run("grow-left", func(t *testing.T) {
		s := newSlabTrace(t, 31)
		for id := 5000; id < 5040; id++ {
			s.insert(id)
		}
		s.check("seed window")
		for id := 4999; id >= 4600; id-- {
			s.insert(id)
			if id%50 == 0 {
				s.check("left growth")
			}
		}
	})
	t.Run("grow-right", func(t *testing.T) {
		s := newSlabTrace(t, 37)
		for id := 0; id < 40; id++ {
			s.insert(id)
		}
		s.check("seed window")
		for id := 40; id < 600; id++ {
			s.insert(id)
			if id%70 == 0 {
				s.check("right growth")
			}
		}
	})
	t.Run("slide-right", func(t *testing.T) {
		s := newSlabTrace(t, 41)
		const w = 50
		for id := 0; id < w; id++ {
			s.insert(id)
		}
		for lo := 0; lo < 3000; lo++ {
			s.remove(lo)
			s.insert(lo + w)
			if lo%250 == 0 {
				s.check("slide right")
			}
		}
		s.check("slide right end")
	})
	t.Run("slide-left", func(t *testing.T) {
		s := newSlabTrace(t, 43)
		const w = 50
		for id := 10000; id < 10000+w; id++ {
			s.insert(id)
		}
		for hi := 10000 + w - 1; hi > 7000; hi-- {
			s.remove(hi)
			s.insert(hi - w)
			if hi%250 == 0 {
				s.check("slide left")
			}
		}
		s.check("slide left end")
	})
	t.Run("jump", func(t *testing.T) {
		// A far jump with points still live forces a fresh, larger slab.
		s := newSlabTrace(t, 47)
		for id := 0; id < 30; id++ {
			s.insert(id)
		}
		for id := 400; id < 420; id++ {
			s.insert(id)
		}
		s.check("jump right")
		for id := 0; id < 30; id++ {
			s.remove(id)
		}
		s.insert(-300)
		s.check("jump left")
	})
}
