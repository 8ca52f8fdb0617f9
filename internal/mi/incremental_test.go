package mi

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// sameBits reports whether two estimates agree to the last bit: the
// incremental estimator's contract with the batch estimator.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// batchOnSurvivors computes the reference KSG estimate over the surviving
// samples of an insert/remove trace, in ascending-id order — the order the
// incremental estimator breaks distance ties and folds digammas in, so the
// two agree to the last bit.
func batchOnSurvivors(x, y map[int]float64, k int) (float64, error) {
	xs := make([]float64, 0, len(x))
	ys := make([]float64, 0, len(x))
	ids := make([]int, 0, len(x))
	for id := range x {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		xs = append(xs, x[id])
		ys = append(ys, y[id])
	}
	return NewKSG(k, BackendKDTree).Estimate(xs, ys)
}

// newBulk returns a fresh estimator Reloaded onto the samples.
func newBulk(k int, ids []int, xs, ys []float64) *Incremental {
	inc := NewIncremental(k)
	inc.Reload(ids, xs, ys)
	return inc
}

func TestIncrementalMatchesBatchAfterInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	x, y := gaussianPair(rng, 300, 0.8)
	inc, err := NewIncrementalFrom(x, y, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := inc.MI()
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewKSG(4, BackendKDTree).Estimate(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(got, want) {
		t.Errorf("incremental = %.17g, batch = %.17g", got, want)
	}
}

func TestIncrementalSlidingWindowMatchesBatch(t *testing.T) {
	// Emulate the LAHC access pattern: slide a window over a series by
	// removing the tail and appending the head, checking against batch at
	// every step.
	rng := rand.New(rand.NewSource(55))
	n := 400
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = 0.7*x[i] + 0.3*rng.NormFloat64()
	}
	w := 80
	inc := NewIncremental(4)
	for i := 0; i < w; i++ {
		inc.Insert(i, x[i], y[i])
	}
	batch := NewKSG(4, BackendKDTree)
	for start := 0; start+w+17 <= n; start += 17 {
		// Slide forward 17 steps.
		for s := 0; s < 17; s++ {
			inc.Remove(start + s)
			inc.Insert(start+w+s, x[start+w+s], y[start+w+s])
		}
		got, err := inc.MI()
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := start+17, start+17+w
		want, err := batch.Estimate(x[lo:hi], y[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, want) {
			t.Fatalf("window [%d,%d): incremental %.17g != batch %.17g", lo, hi, got, want)
		}
	}
}

func TestIncrementalRandomTraceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inc := NewIncremental(3)
		liveX := map[int]float64{}
		liveY := map[int]float64{}
		next := 0
		for op := 0; op < 120; op++ {
			if len(liveX) < 8 || rng.Float64() < 0.6 {
				xv := rng.NormFloat64()
				yv := 0.5*xv + rng.NormFloat64()
				inc.Insert(next, xv, yv)
				liveX[next], liveY[next] = xv, yv
				next++
			} else {
				for id := range liveX {
					inc.Remove(id)
					delete(liveX, id)
					delete(liveY, id)
					break
				}
			}
		}
		got, err := inc.MI()
		if err != nil {
			return len(liveX) <= inc.K()
		}
		want, err := batchOnSurvivors(liveX, liveY, 3)
		if err != nil {
			return false
		}
		return sameBits(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestIncrementalSmallPopulations(t *testing.T) {
	inc := NewIncremental(4)
	if _, err := inc.MI(); !errors.Is(err, ErrTooFewSamples) {
		t.Error("empty estimator must report too few samples")
	}
	rng := rand.New(rand.NewSource(6))
	// Grow through the k threshold and shrink back; MI must stay in sync
	// with batch at every size above k.
	var xs, ys []float64
	for i := 0; i < 12; i++ {
		xv := rng.NormFloat64()
		yv := rng.NormFloat64() + 0.9*xv*xv
		inc.Insert(i, xv, yv)
		xs = append(xs, xv)
		ys = append(ys, yv)
		if i+1 <= 4 {
			if _, err := inc.MI(); err == nil {
				t.Fatalf("MI with %d ≤ k points must fail", i+1)
			}
			continue
		}
		got, err := inc.MI()
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewKSG(4, BackendKDTree).Estimate(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, want) {
			t.Fatalf("size %d: incremental %.17g != batch %.17g", i+1, got, want)
		}
	}
	// Shrink below k and verify the error returns.
	for i := 0; i < 9; i++ {
		inc.Remove(i)
	}
	if _, err := inc.MI(); !errors.Is(err, ErrTooFewSamples) {
		t.Error("shrunk estimator must report too few samples")
	}
}

func TestIncrementalRemoveAbsent(t *testing.T) {
	inc := NewIncremental(2)
	if inc.Remove(42) {
		t.Error("removing absent id must return false")
	}
	inc.Insert(1, 0, 0)
	if !inc.Remove(1) || inc.Len() != 0 {
		t.Error("remove existing failed")
	}
}

func TestIncrementalDuplicateInsertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate insert must panic")
		}
	}()
	inc := NewIncremental(2)
	inc.Insert(1, 0, 0)
	inc.Insert(1, 1, 1)
}

func TestIncrementalUndoRestoresMI(t *testing.T) {
	// The searcher evaluates neighbours by apply-then-revert; the revert
	// must restore the exact MI.
	rng := rand.New(rand.NewSource(77))
	x, y := gaussianPair(rng, 150, 0.6)
	inc, err := NewIncrementalFrom(x, y, 4)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := inc.MI()
	// Apply: remove three, add two.
	inc.Remove(0)
	inc.Remove(1)
	inc.Remove(2)
	inc.Insert(1000, 0.3, -0.2)
	inc.Insert(1001, -1.1, 0.8)
	// Revert.
	inc.Remove(1000)
	inc.Remove(1001)
	inc.Insert(0, x[0], y[0])
	inc.Insert(1, x[1], y[1])
	inc.Insert(2, x[2], y[2])
	after, _ := inc.MI()
	if !sameBits(before, after) {
		t.Errorf("undo drift: before %.17g, after %.17g", before, after)
	}
}

func BenchmarkIncrementalVsBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	n := 4000
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = 0.6*x[i] + 0.4*rng.NormFloat64()
	}
	w := 500
	b.Run("incremental-slide", func(b *testing.B) {
		inc := NewIncremental(4)
		for i := 0; i < w; i++ {
			inc.Insert(i, x[i], y[i])
		}
		pos := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if pos+w+1 >= n {
				b.StopTimer()
				inc = NewIncremental(4)
				for j := 0; j < w; j++ {
					inc.Insert(j, x[j], y[j])
				}
				pos = 0
				b.StartTimer()
			}
			inc.Remove(pos)
			inc.Insert(pos+w, x[pos+w], y[pos+w])
			if _, err := inc.MI(); err != nil {
				b.Fatal(err)
			}
			pos++
		}
	})
	b.Run("batch-slide", func(b *testing.B) {
		est := NewKSG(4, BackendKDTree)
		pos := 0
		for i := 0; i < b.N; i++ {
			if pos+w+1 >= n {
				pos = 0
			}
			if _, err := est.Estimate(x[pos:pos+w], y[pos:pos+w]); err != nil {
				b.Fatal(err)
			}
			pos++
		}
	})
}

func TestNewIncrementalBulkMatchesIncrementalInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	n := 250
	xs := make([]float64, n)
	ys := make([]float64, n)
	ids := make([]int, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = 0.5*xs[i] + rng.NormFloat64()
		ids[i] = i + 1000 // arbitrary id space
	}
	bulk := newBulk(4, ids, xs, ys)
	inc := NewIncremental(4)
	for i, id := range ids {
		inc.Insert(id, xs[i], ys[i])
	}
	a, err := bulk.MI()
	if err != nil {
		t.Fatal(err)
	}
	b, err := inc.MI()
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(a, b) {
		t.Errorf("bulk %.17g != per-insert %.17g", a, b)
	}
	// The bulk estimator stays maintainable afterwards.
	bulk.Remove(ids[0])
	inc.Remove(ids[0])
	a, _ = bulk.MI()
	b, _ = inc.MI()
	if !sameBits(a, b) {
		t.Errorf("after removal bulk %.17g != per-insert %.17g", a, b)
	}
}

// TestIncrementalMatchesBatchUnderRounding drives cascaded inserts and
// removes — the edge moves of a local search — over data whose marginal
// interval bounds round: a 0.1-step lattice, log-normal values across ~20
// orders of magnitude, and values a few ulps apart. After every move the
// incremental estimate must equal the batch estimate of the same window to
// the last bit. This needs the IMR count bumps to test membership with the
// same bounds a fresh count uses, and the stored counts to stay unfloored.
func TestIncrementalMatchesBatchUnderRounding(t *testing.T) {
	const (
		n          = 600
		moves      = 300
		minW, maxW = 6, 180
	)
	for _, kind := range []string{"step0.1", "lognormal", "near-constant"} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			x, y := windowKinds[kind](rng, n)
			inc := NewIncremental(4)
			batch := NewKSG(4, BackendKDTree)
			lo, hi := 200, 240 // the window is [lo, hi)
			for i := lo; i < hi; i++ {
				inc.Insert(i, x[i], y[i])
			}
			for mv := 0; mv < moves; mv++ {
				nlo := min(max(lo+rng.Intn(9)-4, 0), n-minW)
				nhi := min(max(hi+rng.Intn(9)-4, nlo+minW), nlo+maxW, n)
				for i := lo; i < min(nlo, hi); i++ {
					inc.Remove(i)
				}
				for i := max(nhi, lo); i < hi; i++ {
					inc.Remove(i)
				}
				for i := nlo; i < min(lo, nhi); i++ {
					inc.Insert(i, x[i], y[i])
				}
				for i := max(hi, nlo); i < nhi; i++ {
					inc.Insert(i, x[i], y[i])
				}
				lo, hi = nlo, nhi
				got, err := inc.MI()
				if err != nil {
					t.Fatal(err)
				}
				want, err := batch.Estimate(x[lo:hi], y[lo:hi])
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(got, want) {
					t.Fatalf("%s/seed %d/move %d: window [%d,%d): incremental %.17g, batch %.17g", kind, seed, mv, lo, hi, got, want)
				}
			}
		}
	}
}
