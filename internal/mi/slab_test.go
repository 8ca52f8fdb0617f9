package mi

import (
	"math/rand"
	"testing"
)

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
		inc: NewIncremental(4),
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
	checkAgainstBrute(s.t, label, s.inc)
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
