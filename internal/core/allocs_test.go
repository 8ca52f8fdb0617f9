package core

import (
	"testing"
)

// TestWarmSearchAllocsPerRestart bounds the heap allocations a warm Search
// spends per LAHC restart. The climb appends neighbourhoods into a
// per-searcher buffer, carries pruned directions as flags, re-seeds one
// acceptor RNG and (for the incremental variants) reloads pooled estimators
// whose state and list slabs and k-d tree are already sized, so what remains is
// per-search set-up and a few bookkeeping allocations per restart. The
// bounds sit one allocation above the measured 8 (L) and 53 (LMN) per
// restart: a fresh rand source per restart (L and LMN) or a map per
// pruned-direction test (LMN) pushes past them.
func TestWarmSearchAllocsPerRestart(t *testing.T) {
	p := testPair(23, 1500, 400, 520, 2)
	for _, tc := range []struct {
		variant Variant
		max     float64
	}{
		{VariantL, 9},
		{VariantLMN, 54},
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
