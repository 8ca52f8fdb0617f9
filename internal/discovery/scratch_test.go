package discovery

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime/debug"
	"sync"
	"testing"

	"tycos/internal/core"
	"tycos/internal/freelist"
	"tycos/internal/freelist/freelisttest"
	"tycos/internal/mi"
	"tycos/internal/series"
)

// progressFleet is a screened fleet with every kind of candidate the
// progress contract names: planted followers that survive the screen and
// are confirmed, AR(1) decoys the screen prunes, candidate 3, too short to
// screen, and candidate 7, a follower with a NaN outside its planted
// segment, which survives the screen (windows with the NaN are degenerate)
// and fails confirmation.
func progressFleet() (series.Series, []series.Series, Options) {
	anchor, cands := testFleet(160, 14, map[int]int{0: 2, 5: 1, 7: 0, 9: 0}, 17)
	cands[3] = series.New(cands[3].Name, cands[3].Values[:20])
	nan := append([]float64(nil), cands[7].Values...)
	nan[2] = math.NaN()
	cands[7] = series.New(cands[7].Name, nan)
	return anchor, cands, Options{
		Search: testSearchOpts(), TopK: 4, Screen: true,
		ScreenWindow: 32, ScreenThreshold: 0.9,
	}
}

// TestDiscoverProgress checks the OnProgress contract on both phases, at
// one and two workers: Total is fixed within a phase (the fleet for the
// screen, the survivors for confirmation), Done runs 1, 2, … in call order
// and the last call has Done == Total. Pruned, screen-failed and
// confirm-failed candidates are all present (run under -race in CI).
func TestDiscoverProgress(t *testing.T) {
	anchor, cands, opts := progressFleet()
	for _, workers := range []int{1, 2} {
		var (
			mu    sync.Mutex
			calls = map[string][]Progress{}
		)
		opts.Workers = workers
		opts.OnProgress = func(p Progress) {
			mu.Lock()
			calls[p.Phase] = append(calls[p.Phase], p)
			mu.Unlock()
		}
		res, err := Discover(context.Background(), anchor, cands, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Pruned == 0 || len(res.Errors) != 2 {
			t.Fatalf("workers=%d: %d pruned, errors %+v; the fleet needs pruned, screen-failed and confirm-failed candidates", workers, res.Stats.Pruned, res.Errors)
		}
		survivors := len(cands) - res.Stats.Pruned - 1 // candidate 3 fails the screen
		for phase, total := range map[string]int{"screen": len(cands), "confirm": survivors} {
			got := calls[phase]
			if len(got) != total {
				t.Errorf("workers=%d %s: %d callbacks, want %d", workers, phase, len(got), total)
			}
			for i, p := range got {
				if p.Total != total || p.Done != i+1 {
					t.Errorf("workers=%d %s: callback %d reads %d/%d, want %d/%d", workers, phase, i, p.Done, p.Total, i+1, total)
				}
				if phase == "confirm" && p.Pruned {
					t.Errorf("workers=%d: confirm progress for pruned candidate %s", workers, p.Candidate)
				}
			}
		}
	}
}

// warmDiscoverFleet is a fleet at discover-fleet's shape: 40 candidates of
// 160 samples, every tenth a planted follower, screened with a 32-sample
// window at 0.9 and confirmed by LMN searches with windows up to 32.
func warmDiscoverFleet() (series.Series, []series.Series, Options) {
	anchor, cands := testFleet(160, 40, map[int]int{0: 2, 10: 1, 20: 0, 30: 2}, 23)
	sOpts := core.Options{
		SMin: 8, SMax: 32, TDMax: 8, Sigma: 0.45,
		Normalization: mi.NormMaxEntropy, Variant: core.VariantLMN, Seed: 1,
	}
	return anchor, cands, Options{
		Search: sOpts, TopK: 10, Screen: true,
		ScreenWindow: 32, ScreenThreshold: 0.9, Workers: 2,
	}
}

// TestWarmDiscoverAllocs bounds the heap allocations of a warm screened
// Discover pass. The slots, the shard plan, the shard cursor and wait
// group, the screener, the screen workers' scratch, the ranking and the
// adaptive threshold are pass scratch, the phases' work funcs are method
// expressions, and every confirm search takes its scratch from the core's
// free lists. So a warm pass allocates the ranked candidates, each
// survivor's result windows and one closure per worker in each phase: 9
// allocations per pass here, under the race detector too. The collector is
// paused while measuring.
func TestWarmDiscoverAllocs(t *testing.T) {
	anchor, cands, opts := warmDiscoverFleet()
	res, err := Discover(context.Background(), anchor, cands, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Pruned == 0 || res.Stats.Searched == 0 || len(res.Ranked) == 0 {
		t.Fatalf("pass shape off: %+v, %d ranked", res.Stats, len(res.Ranked))
	}
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Discover(context.Background(), anchor, cands, opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per pass (%d searched, %d ranked)", allocs, res.Stats.Searched, len(res.Ranked))
	if allocs > 11 {
		t.Errorf("a warm pass allocates %.0f times, want ≤ 11", allocs)
	}
}

// fleetSamples returns the sample arrays of an anchor and its candidates.
func fleetSamples(anchor series.Series, cands []series.Series) [][]float64 {
	out := [][]float64{anchor.Values}
	for _, c := range cands {
		out = append(out, c.Values)
	}
	return out
}

// TestFreePassScratchHoldsNothing checks that pass scratch on the free list
// keeps nothing of a finished pass: freelisttest.Held must find no slice
// into the anchor's or a candidate's samples, no result window and no
// error. The pass below is observed, journaled and has failing candidates,
// so every field of the scratch is used.
func TestFreePassScratchHoldsNothing(t *testing.T) {
	anchor, cands, opts := progressFleet()
	opts.Journal = newMemJournal()
	opts.Observer = &recordSink{}
	res, err := Discover(context.Background(), anchor, cands, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ranked) == 0 || len(res.Errors) == 0 {
		t.Fatalf("pass shape off: %d ranked, %d errors", len(res.Ranked), len(res.Errors))
	}
	samples := fleetSamples(anchor, cands)

	// The walk must see what a pass in use holds.
	live := passPool.Take()
	live.anchor = anchor
	live.slots = append(live.slots, candState{err: errors.New(res.Errors[0].Err), res: res.Ranked[0].Result})
	if held := freelisttest.Held(live, samples...); len(held) < 3 {
		t.Fatalf("the walk finds %q in a pass in use, want its anchor, error and windows", held)
	}
	passPool.Put(live)

	free := passPool.Free()
	if len(free) == 0 {
		t.Fatal("the free list is empty after a pass")
	}
	for i, e := range free {
		for _, path := range freelisttest.Held(e, samples...) {
			t.Errorf("free pass scratch %d holds %s", i, path)
		}
	}
}

// TestFreePassScratchRetention checks the retention bound: after a pass
// whose slots, anchor moments and screen buffers outgrow
// freelist.MaxBytes, no buffer of a free pass scratch is above it.
func TestFreePassScratchRetention(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ar := func(n int) []float64 {
		v := make([]float64, n)
		var a float64
		for i := range v {
			a = 0.9*a + rng.NormFloat64()
			v[i] = a
		}
		return v
	}
	const long, short, fleet = 9000, 100, 400
	anchor := series.New("anchor", ar(long))
	cands := make([]series.Series, fleet)
	for i := range cands {
		n := short
		if i < 2 {
			n = long // long decoys grow the screen's candidate buffers
		}
		cands[i] = series.New(string(rune('a'+i%26))+string(rune('a'+i/26)), ar(n))
	}
	follower := append([]float64(nil), anchor.Values[:short]...)
	cands[fleet-1] = series.New("follower", follower)
	if freelist.Fits[candState](fleet) || freelist.Fits[float64](long) {
		t.Fatal("the fleet fits the retention bound; it is not outsized")
	}
	opts := Options{
		Search: testSearchOpts(), TopK: 4, Screen: true,
		ScreenWindow: 32, ScreenThreshold: 0.99, Workers: 2,
	}
	res, err := Discover(context.Background(), anchor, cands, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Searched == 0 {
		t.Fatal("no candidate was confirmed")
	}
	for i, e := range passPool.Free() {
		for _, path := range freelisttest.Held(e) {
			t.Errorf("free pass scratch %d holds %s", i, path)
		}
	}
}
