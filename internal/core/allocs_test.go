package core

import (
	"runtime/debug"
	"sync/atomic"
	"testing"
)

// raceEnabled is set under the race detector, whose sync.Pool drops a
// random share of the items put back.
var raceEnabled bool

// TestWarmSearchAllocsPerRestart bounds the heap allocations a warm Search
// spends per LAHC restart. The climb appends neighbourhoods into a
// per-searcher buffer, carries pruned directions as flags, re-seeds one
// acceptor RNG and (for the incremental variants) reloads pooled estimators
// whose state and list slabs and k-d tree are already sized, so what remains is
// per-search set-up and a few bookkeeping allocations per restart. Measured
// per restart: 4.3 (L) and 19.2 (LMN), and 4.3–4.4 and 19.4–19.9 under the
// race detector, whose sync.Pool drops some memo tables. The bounds sit
// above the race figures: a fresh rand source per restart (L and LMN) or a
// map per pruned-direction test (LMN) pushes past them.
func TestWarmSearchAllocsPerRestart(t *testing.T) {
	p := testPair(23, 1500, 400, 520, 2)
	for _, tc := range []struct {
		variant Variant
		max     float64
	}{
		{VariantL, 5},
		{VariantLMN, 21},
	} {
		opts := defaultOpts()
		opts.Variant = tc.variant
		opts.RestartWorkers = 1
		opts.EstimatorCache = NewEstimatorCache(0)
		res, err := Search(p, opts) // warms the estimator cache
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Restarts < 10 {
			t.Fatalf("%v: only %d restarts; the bound needs a longer scan", tc.variant, res.Stats.Restarts)
		}
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := Search(p, opts); err != nil {
				t.Fatal(err)
			}
		})
		perRestart := allocs / float64(res.Stats.Restarts)
		t.Logf("%v: %.0f allocs over %d restarts = %.1f per restart", tc.variant, allocs, res.Stats.Restarts, perRestart)
		if perRestart > tc.max {
			t.Errorf("%v: %.1f allocs per restart, want ≤ %v", tc.variant, perRestart, tc.max)
		}
	}
}

// TestWarmSearchAllocatesNoMemoTable checks that score memo tables are
// recycled: once a search has run, the next one, at two restart workers,
// takes every segment's table from the pool. Collections are off during the
// check because a collection may empty the pool.
func TestWarmSearchAllocatesNoMemoTable(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var made atomic.Int64
	defer func(f func() any) { memoPool.New = f }(memoPool.New)
	memoPool.New = func() any {
		made.Add(1)
		return new(scoreMemo)
	}
	p := parallelTestPair(900)
	for _, v := range []Variant{VariantL, VariantLMN} {
		opts := parallelTestOpts()
		opts.Variant = v
		opts.RestartWorkers = 2
		if _, err := Search(p, opts); err != nil { // fills the pool
			t.Fatal(err)
		}
		made.Store(0)
		if _, err := Search(p, opts); err != nil {
			t.Fatal(err)
		}
		if n := made.Load(); n != 0 {
			t.Errorf("%v: a warm search allocated %d memo tables", v, n)
		}
	}
}
