package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime/debug"
	"testing"

	"tycos/internal/faultinject"
	"tycos/internal/freelist"
	"tycos/internal/freelist/freelisttest"
	"tycos/internal/mi"
	"tycos/internal/obs"
	"tycos/internal/series"
	"tycos/internal/window"
)

// TestWarmSearchAllocsPerSearch bounds the heap allocations of a warm
// Search on all four variants. The scorer and the climb's buffers live in
// the segment scratch; the plan, the segment results, the candidate
// buffers, the merged candidates and the accepted set live in the search
// scratch; events are boxed only for a sink that reads them one by one;
// and a search observed by the bare registry hands it one total per event
// kind. At SMax 60 every window takes the batch route, whose estimators
// build no k-d tree. What remains is the result's windows: 1 allocation
// per search on every variant, unobserved or registry-observed, under the
// race detector too, over 40–126 restarts. Two restart workers add one
// closure each. A search bound to a warm score table, observed by the
// registry, makes the same one: its probes and stores go to the table's
// fixed sets. A boxed event per restart, a new acceptor per climb or a
// candidate list grown afresh pushes a variant past its bound. The
// collector is paused, as in TestWarmSearchAllocsRepeat.
func TestWarmSearchAllocsPerSearch(t *testing.T) {
	p := testPair(23, 1500, 400, 520, 2)
	table := NewScoreTable()
	for _, tc := range []struct {
		name     string
		workers  int
		registry bool
		bound    float64
		table    bool
	}{
		{"unobserved", 1, false, 2, false},
		{"registry", 1, true, 2, false},
		{"unobserved/2-workers", 2, false, 4, false},
		{"registry/score-table", 1, true, 2, true},
	} {
		for _, v := range []Variant{VariantL, VariantLN, VariantLM, VariantLMN} {
			opts := defaultOpts()
			opts.Variant = v
			opts.RestartWorkers = tc.workers
			if tc.registry {
				opts.Observer = obs.NewRegistry()
			}
			var h TableHandle
			if tc.table {
				h = table.Handle(0)
			}
			search := func() (Result, error) { return SearchTable(context.Background(), p, opts, h) }
			res, err := search() // warms the scratch, the registry's series and the table
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Restarts < 10 || len(res.Windows) == 0 {
				t.Fatalf("%s/%v: %d restarts, %d windows; the bound needs a longer scan with a result", tc.name, v, res.Stats.Restarts, len(res.Windows))
			}
			gc := debug.SetGCPercent(-1)
			allocs := testing.AllocsPerRun(3, func() {
				if _, err := search(); err != nil {
					t.Fatal(err)
				}
			})
			debug.SetGCPercent(gc)
			t.Logf("%s/%v: %.0f allocations per search over %d restarts", tc.name, v, allocs, res.Stats.Restarts)
			if allocs > tc.bound {
				t.Errorf("%s/%v: %.0f allocations per search, want ≤ %.0f", tc.name, v, allocs, tc.bound)
			}
		}
	}
}

// TestWarmSearchAllocsRepeat checks that a warm search allocates exactly as
// often on every run: on all four variants, and on LM and LMN with windows
// above the all-pairs bound, whose estimators each search builds and
// reloads. The collector is paused while measuring, because a collection
// that lands inside the search shifts the count by one or two. The counts
// are compared from run to run rather than against fixed numbers, which
// move with the Go release. They repeat under the race detector too.
func TestWarmSearchAllocsRepeat(t *testing.T) {
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
// memo table and the τ-plane estimators, and search scratch are recycled:
// a search at two restart workers, after a warm-up, takes every segment's
// scratch and its own from the free lists. And a scorer whose planes are
// warm plans and scores a neighbourhood from them without allocating.
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
		a, b := segPool.Take(), segPool.Take()
		segPool.Put(a)
		segPool.Put(b)
		made, searchMade := segPool.Made(), searchPool.Made()
		if _, err := Search(p, opts); err != nil {
			t.Fatal(err)
		}
		if n := segPool.Made() - made; n != 0 {
			t.Errorf("%v: a warm search allocated %d segment scratch", v, n)
		}
		if n := searchPool.Made() - searchMade; n != 0 {
			t.Errorf("%v: a warm search allocated %d search scratch", v, n)
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

// TestFreeScratchHoldsNoSamples checks that scratch on the free lists keeps
// nothing of a finished search alive. The searches below leave samples in
// every kind of field the segment scratch has: τ-planes that served
// estimates (L and LMN), incremental estimators for windows above the
// all-pairs bound (LM), and the scorers' pair views. They leave candidates,
// accepted windows, events and counters in the search scratch, and the last
// one a segment's panic. freelisttest.Held walks everything a free scratch
// references, field by field, and must find no slice into a pair's arrays,
// no estimator (which holds copies of samples), no result window and no
// error. The walk follows every field by reflection, so a field a scratch
// gains is covered too.
func TestFreeScratchHoldsNoSamples(t *testing.T) {
	small := parallelTestPair(900)
	large := testPair(29, 1200, 300, 600, 1)
	samples := [][]float64{small.X.Values, small.Y.Values, large.X.Values, large.Y.Values}
	for _, tc := range []struct {
		variant    Variant
		pair       series.Pair
		smin, smax int
	}{
		{VariantL, small, 10, 60},
		{VariantLMN, small, 10, 60},
		{VariantLM, large, 130, 200},
	} {
		opts := parallelTestOpts()
		opts.Variant = tc.variant
		opts.SMin, opts.SMax = tc.smin, tc.smax
		opts.RestartWorkers = 2
		sink := newCollectSink()
		opts.Observer = sink
		res, err := Search(tc.pair, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Windows) == 0 {
			t.Fatalf("%v: no accepted window, so the check covers no result", tc.variant)
		}
		if tc.variant == VariantLM {
			if res.Stats.MIIncremental == 0 {
				t.Fatalf("%v: no incremental move, so the check covers no estimator", tc.variant)
			}
		} else if sink.counts["mi.plane_estimates"] <= 0 {
			t.Fatalf("%v: planes served no estimate, so the check proves nothing", tc.variant)
		}
	}
	func() {
		defer faultinject.Clear()
		faultinject.Set(segmentFaultKey("x/y", 1), faultinject.Fault{Panic: "segment boom"})
		defer func() {
			if recover() == nil {
				t.Fatal("the armed segment fault did not panic")
			}
		}()
		opts := parallelTestOpts()
		opts.RestartWorkers = 2
		_, _ = Search(small, opts)
	}()

	// The walk must see what scratch in use holds.
	live := segPool.Take()
	sc := newScorer(small, parallelTestOpts().withDefaults(), nil, TableHandle{}, live)
	if _, _, err := sc.both(window.Window{Start: 150, End: 190, Delay: 2}); err != nil {
		t.Fatal(err)
	}
	if held := freelisttest.Held(live, samples...); len(held) == 0 {
		t.Fatal("the walk finds nothing in a segment scratch in use; it proves nothing")
	}
	segPool.Put(live)
	liveSearch := searchPool.Take()
	liveSearch.pair = small
	liveSearch.set.Insert(window.Scored{Window: window.Window{Start: 1, End: 20}, MI: 0.5})
	liveSearch.panics = append(liveSearch.panics, &workerPanic{value: errors.New("boom")})
	if held := freelisttest.Held(liveSearch, samples...); len(held) != 4 {
		t.Fatalf("the walk finds %q in a search scratch in use, want its two series, window and error", held)
	}
	searchPool.Put(liveSearch)

	for name, free := range map[string][]any{"segment": anys(segPool.Free()), "search": anys(searchPool.Free())} {
		if len(free) == 0 {
			t.Fatalf("the %s free list is empty after four searches", name)
		}
		for i, sc := range free {
			for _, path := range freelisttest.Held(sc, samples...) {
				t.Errorf("free %s scratch %d holds %s", name, i, path)
			}
		}
	}
}

// TestFreeScratchRetention checks the retention bound: after a search
// whose plan, segment results, candidates and accepted set all outgrow
// freelist.MaxBytes, no buffer of any free scratch is above it.
func TestFreeScratchRetention(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 40000
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = x[i] + 0.3*rng.NormFloat64()
	}
	p := series.MustPair(series.New("x", x), series.New("y", y))
	opts := Options{SMin: 6, SMax: 8, TDMax: 1, Sigma: 0.01, MaxIdle: 1, Seed: 1, RestartWorkers: 2}
	res, err := Search(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d restarts, %d windows", res.Stats.Restarts, len(res.Windows))
	if freelist.Fits[window.Scored](len(res.Windows)) {
		t.Fatalf("%d accepted windows fit the retention bound; the search is not outsized", len(res.Windows))
	}
	for name, free := range map[string][]any{"segment": anys(segPool.Free()), "search": anys(searchPool.Free())} {
		for i, sc := range free {
			for _, path := range freelisttest.Held(sc) {
				t.Errorf("free %s scratch %d holds %s", name, i, path)
			}
		}
	}
}

// anys converts a free list's scratch for walking.
func anys[T any](xs []*T) []any {
	out := make([]any, len(xs))
	for i, x := range xs {
		out[i] = x
	}
	return out
}
