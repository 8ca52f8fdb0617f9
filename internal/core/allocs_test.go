package core

import (
	"fmt"
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
// spends per LAHC restart, on all four variants. The scorer and the
// climb's buffers (the neighbourhood, the acceptor and its RNG) live in the
// segment scratch, events are boxed only for an observer, and at SMax 60
// every window takes the batch route, whose estimators build no k-d tree.
// What remains is per-search and per-segment set-up and the candidate list.
// Measured per restart: 0.6 (L and LM) and 1.6 (LN and LMN), and 0.6–0.7
// and 1.7 under the race detector. A boxed event per restart, or a new
// acceptor per climb, pushes a variant past its bound.
func TestWarmSearchAllocsPerRestart(t *testing.T) {
	p := testPair(23, 1500, 400, 520, 2)
	for _, tc := range []struct {
		variant Variant
		max     float64
	}{
		{VariantL, 1},
		{VariantLN, 2.5},
		{VariantLM, 1},
		{VariantLMN, 2.5},
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
// move with the Go release. Under the race detector the counts vary in
// steps of three (L read 95, 86, 86 and 92), although no sync.Pool is left
// on the search path; the cause is not known, so the check is skipped
// there.
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
// no finished search's series alive. The searches below leave samples in
// every kind of field the scratch has: τ-planes that served estimates (L and
// LMN), incremental estimators for windows above the all-pairs bound (LM),
// and the scorers' pair views. A walk over everything a free scratch
// references, field by field, must find no slice into a pair's arrays and
// no estimator, which holds copies of samples. The walk follows every field
// by reflection, so a field the scratch gains is covered too.
func TestFreeScratchHoldsNoSamples(t *testing.T) {
	small := parallelTestPair(900)
	large := testPair(29, 1200, 300, 600, 1)
	pairs := []series.Pair{small, large}
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
		if tc.variant == VariantLM {
			if res.Stats.MIIncremental == 0 {
				t.Fatalf("%v: no incremental move, so the check covers no estimator", tc.variant)
			}
		} else if sink.counts["mi.plane_estimates"] <= 0 {
			t.Fatalf("%v: planes served no estimate, so the check proves nothing", tc.variant)
		}
	}

	// The walk must see what a scratch in use holds.
	live := scratchPool.take()
	sc := newScorer(small, parallelTestOpts().withDefaults(), nil, live)
	if _, _, err := sc.both(window.Window{Start: 150, End: 190, Delay: 2}); err != nil {
		t.Fatal(err)
	}
	if held := samplesHeld(reflect.ValueOf(live), "scratch", pairs, map[uintptr]bool{}); len(held) == 0 {
		t.Fatal("the walk finds nothing in a scratch in use; it proves nothing")
	}
	scratchPool.put(live)

	scratchPool.mu.Lock()
	defer scratchPool.mu.Unlock()
	if len(scratchPool.free) == 0 {
		t.Fatal("the free list is empty after three searches")
	}
	for i, sc := range scratchPool.free {
		for _, path := range samplesHeld(reflect.ValueOf(sc), "scratch", pairs, map[uintptr]bool{}) {
			t.Errorf("free scratch %d holds a finished search's samples at %s", i, path)
		}
	}
}

// samplesHeld walks everything v references and returns the path of each
// slice into one of the pairs' sample arrays and of each estimator (a
// pointer to an internal/mi type). seen stops the walk at a pointer it
// has followed before.
func samplesHeld(v reflect.Value, path string, pairs []series.Pair, seen map[uintptr]bool) []string {
	var held []string
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return nil
		}
		if v.Kind() == reflect.Pointer {
			if seen[v.Pointer()] {
				return nil
			}
			seen[v.Pointer()] = true
			if v.Type().Elem().PkgPath() == "tycos/internal/mi" {
				return []string{path + " (" + v.Type().String() + ")"}
			}
		}
		return samplesHeld(v.Elem(), path, pairs, seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			held = append(held, samplesHeld(v.Field(i), path+"."+v.Type().Field(i).Name, pairs, seen)...)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			held = append(held, samplesHeld(v.Index(i), fmt.Sprintf("%s[%d]", path, i), pairs, seen)...)
		}
	case reflect.Slice:
		if v.IsNil() {
			return nil
		}
		if v.Type().Elem().Kind() == reflect.Float64 && aliasesSamples(v, pairs) {
			return []string{path}
		}
		all := v.Slice(0, v.Cap())
		for i := 0; i < all.Len(); i++ {
			held = append(held, samplesHeld(all.Index(i), fmt.Sprintf("%s[%d]", path, i), pairs, seen)...)
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			held = append(held, samplesHeld(it.Value(), path+"[…]", pairs, seen)...)
		}
	}
	return held
}

// aliasesSamples reports whether the float64 slice v shares memory with one
// of the pairs' sample arrays.
func aliasesSamples(v reflect.Value, pairs []series.Pair) bool {
	lo := v.Pointer()
	hi := lo + uintptr(v.Cap())*8
	for _, p := range pairs {
		for _, vals := range [][]float64{p.X.Values, p.Y.Values} {
			a := reflect.ValueOf(vals).Pointer()
			if lo < a+uintptr(len(vals))*8 && a < hi {
				return true
			}
		}
	}
	return false
}

// scratchMade returns the number of segment scratch allocated so far.
func scratchMade() int {
	scratchPool.mu.Lock()
	defer scratchPool.mu.Unlock()
	return scratchPool.made
}
