package core

import (
	"reflect"
	"runtime/debug"
	"testing"

	"tycos/internal/mi"
	"tycos/internal/series"
	"tycos/internal/window"
)

// raceBuild reports a build with the race detector (see race_test.go).
var raceBuild bool

// TestWarmSearchAllocsPerRestart bounds the heap allocations a warm Search
// spends per LAHC restart. The climb appends neighbourhoods into a
// per-searcher buffer, carries pruned directions as flags and re-seeds one
// acceptor RNG, and at SMax 60 every window takes the batch route, so what
// remains is per-search set-up and a few bookkeeping allocations per
// restart. Measured per restart: 4.3 (L) and 14.4 (LMN), and 4.3 and 14.5
// under the race detector. The bounds sit above the race figures: a fresh
// rand source per restart (L and LMN) or a map per pruned-direction test
// (LMN) pushes past them.
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
		res, err := Search(p, opts) // warms the segment scratch
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

// TestWarmSearchAllocsRepeat checks that a warm search allocates exactly as
// often on every run: on all four variants, and on LM and LMN with windows
// above the all-pairs bound, whose estimators each search builds and
// reloads. The collector is paused while measuring, because a collection
// that lands inside the search shifts the count by one or two. The counts
// are compared from run to run rather than against fixed numbers, which
// move with the Go release. Under the race detector sync.Pool drops items
// at random, so the counts vary and the check is skipped.
func TestWarmSearchAllocsRepeat(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts vary under the race detector")
	}
	small := testPair(23, 1500, 400, 520, 2)
	large := testPair(29, 1200, 300, 600, 1)
	for _, tc := range []struct {
		name    string
		variant Variant
		pair    series.Pair
		smin    int
		smax    int
	}{
		{"L", VariantL, small, 10, 60},
		{"LN", VariantLN, small, 10, 60},
		{"LM", VariantLM, small, 10, 60},
		{"LMN", VariantLMN, small, 10, 60},
		{"LM/above-bound", VariantLM, large, 130, 200},
		{"LMN/above-bound", VariantLMN, large, 130, 200},
	} {
		opts := defaultOpts()
		opts.Variant = tc.variant
		opts.SMin, opts.SMax = tc.smin, tc.smax
		opts.RestartWorkers = 1
		res, err := Search(tc.pair, opts) // warms the segment scratch
		if err != nil {
			t.Fatal(err)
		}
		if !mi.KernelServes(tc.smin) && res.Stats.MIIncremental == 0 {
			t.Fatalf("%s: no incremental move, so the case covers no estimator", tc.name)
		}
		var counts []float64
		for run := 0; run < 4; run++ {
			gc := debug.SetGCPercent(-1)
			counts = append(counts, testing.AllocsPerRun(1, func() {
				if _, err := Search(tc.pair, opts); err != nil {
					t.Fatal(err)
				}
			}))
			debug.SetGCPercent(gc)
		}
		t.Logf("%s: %v allocations per search", tc.name, counts)
		for _, c := range counts[1:] {
			if c != counts[0] {
				t.Errorf("%s: a warm search allocated %v times in turn, want one count", tc.name, counts)
				break
			}
		}
	}
}

// TestWarmSearchAllocatesNoMemoTable checks that segment scratch, the score
// memo table and the τ-plane estimators, is recycled: a search at two
// restart workers, after a warm-up, takes every segment's scratch from the
// free list. And a scorer whose planes are warm plans and scores a
// neighbourhood from them without allocating.
func TestWarmSearchAllocatesNoMemoTable(t *testing.T) {
	p := parallelTestPair(900)
	for _, v := range []Variant{VariantL, VariantLMN} {
		opts := parallelTestOpts()
		opts.Variant = v
		opts.RestartWorkers = 2
		if _, err := Search(p, opts); err != nil {
			t.Fatal(err)
		}
		// Two workers hold at most two scratch at once. The warm-up may
		// have held only one, if one worker ran every segment; free two.
		a, b := scratchPool.take(), scratchPool.take()
		scratchPool.put(a)
		scratchPool.put(b)
		made := scratchMade()
		if _, err := Search(p, opts); err != nil {
			t.Fatal(err)
		}
		if n := scratchMade() - made; n != 0 {
			t.Errorf("%v: a warm search allocated %d segment scratch", v, n)
		}
	}

	opts := parallelTestOpts().withDefaults()
	sc := newBatchScorer(p, opts.K, opts.Normalization)
	sc.planes = new(segScratch).planes[:]
	nbs := neighborhood(window.Window{Start: 150, End: 190, Delay: 2}, 1, 1, opts.constraints(p.Len()), pruneFlags{}, nil)
	score := func() {
		sc.plan(nbs, 0)
		for _, w := range nbs {
			if _, _, err := sc.both(w); err != nil {
				t.Fatal(err)
			}
		}
	}
	score()
	if sc.nPlane != len(nbs) {
		t.Fatalf("planes served %d of the %d neighbours", sc.nPlane, len(nbs))
	}
	if got := testing.AllocsPerRun(10, score); got != 0 {
		t.Errorf("a warm scorer's planes allocate %v times per neighbourhood, want 0", got)
	}
}

// TestFreeScratchHoldsNoSamples checks that scratch on the free list keeps
// no finished search's series alive: after searches whose τ-planes served
// estimates, no plane on the list references a sample slice. A plane's
// slices are views into the pair's arrays, and the list outlives searches.
func TestFreeScratchHoldsNoSamples(t *testing.T) {
	p := parallelTestPair(900)
	for _, v := range []Variant{VariantL, VariantLMN} {
		opts := parallelTestOpts()
		opts.Variant = v
		opts.RestartWorkers = 2
		sink := newCollectSink()
		opts.Observer = sink
		if _, err := Search(p, opts); err != nil {
			t.Fatal(err)
		}
		if sink.counts["mi.plane_estimates"] <= 0 {
			t.Fatalf("%v: planes served no estimate, so the check proves nothing", v)
		}
	}
	scratchPool.mu.Lock()
	defer scratchPool.mu.Unlock()
	if len(scratchPool.free) == 0 {
		t.Fatal("the free list is empty after two searches")
	}
	for i, sc := range scratchPool.free {
		for j := range sc.planes {
			pl := reflect.ValueOf(&sc.planes[j].est).Elem()
			for _, field := range []string{"xs", "ys"} {
				f := pl.FieldByName(field)
				if !f.IsValid() {
					t.Fatalf("mi.Plane has no field %s; update this test", field)
				}
				if !f.IsNil() {
					t.Errorf("free scratch %d: plane %d still references samples (%s)", i, j, field)
				}
			}
		}
	}
}

// scratchMade returns the number of segment scratch allocated so far.
func scratchMade() int {
	scratchPool.mu.Lock()
	defer scratchPool.mu.Unlock()
	return scratchPool.made
}
