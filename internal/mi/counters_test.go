package mi

import (
	"math/rand"
	"testing"
)

func TestKSGEstimatesCounter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x, y := gaussianPair(rng, 64, 0.5)
	e := NewKSG(4, BackendKDTree)
	if e.Estimates() != 0 {
		t.Fatalf("fresh estimator reports %d estimates", e.Estimates())
	}
	for i := 1; i <= 3; i++ {
		if _, err := e.Estimate(x, y); err != nil {
			t.Fatal(err)
		}
		if e.Estimates() != i {
			t.Errorf("after %d estimations counter = %d", i, e.Estimates())
		}
	}
	// Failed estimations (too few samples) do not count.
	if _, err := e.Estimate(x[:3], y[:3]); err == nil {
		t.Fatal("undersized estimate did not fail")
	}
	if e.Estimates() != 3 {
		t.Errorf("failed estimate bumped the counter to %d", e.Estimates())
	}
}

func TestIncrementalOpsCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x, y := gaussianPair(rng, 40, 0.6)

	inc, err := NewIncrementalFrom(x, y, 4)
	if err != nil {
		t.Fatal(err)
	}
	ops := inc.Ops()
	if ops.Inserts != 40 || ops.Removes != 0 {
		t.Fatalf("after 40 inserts: %+v", ops)
	}
	if ops.Refreshes < 40 {
		t.Errorf("40 inserts caused only %d refreshes; every point's state is computed at least once", ops.Refreshes)
	}

	if !inc.Remove(0) {
		t.Fatal("remove failed")
	}
	inc.Insert(100, 0.1, 0.2)
	ops = inc.Ops()
	if ops.Inserts != 41 || ops.Removes != 1 {
		t.Errorf("after one remove and one insert: %+v", ops)
	}
	// Removing an absent id performs no work.
	if inc.Remove(555) {
		t.Fatal("absent id removed")
	}
	if got := inc.Ops().Removes; got != 1 {
		t.Errorf("absent-id remove bumped Removes to %d", got)
	}

	// Bulk construction counts its committed inserts too.
	ids := make([]int, len(x))
	for i := range ids {
		ids[i] = i
	}
	bulk := newBulk(4, ids, x, y)
	if got := bulk.Ops().Inserts; got != len(x) {
		t.Errorf("bulk load of %d points reports %d inserts", len(x), got)
	}
	if got := bulk.Ops().Refreshes; got < len(x) {
		t.Errorf("bulk load refreshed only %d points", got)
	}
}

// TestIncrementalRequeries pins when a neighbour list is rescanned: only
// after removals empty it below k. On a line of 12 points with k = 1, the
// list of point 0 holds its 1+reserve nearest; removing them one by one
// rescans it once they are all gone.
func TestIncrementalRequeries(t *testing.T) {
	inc := NewIncremental(1)
	ids := make([]int, 12)
	xs := make([]float64, len(ids))
	for i := range ids {
		ids[i], xs[i] = i, float64(i)
	}
	inc.Reload(ids, xs, make([]float64, len(ids)))
	for id := 1; id <= reserve; id++ {
		inc.Remove(id)
		inc.Insert(100+id, -float64(100+id), 0) // far to the left: enters no list on the line
	}
	if got := inc.Ops().Requeries; got != 0 {
		t.Fatalf("%d requeries while every list still held k entries", got)
	}
	inc.Remove(reserve + 1)
	ops := inc.Ops()
	if ops.Requeries < 1 || ops.Requeries > ops.Refreshes {
		t.Errorf("after emptying point 0's list: %+v, want 1 ≤ Requeries ≤ Refreshes", ops)
	}
	checkAgainstBrute(t, "requeried", inc)
	inc.Reload(ids, xs, make([]float64, len(ids)))
	if got := inc.Ops().Requeries; got != 0 {
		t.Errorf("Reload kept %d requeries", got)
	}
}
