package discovery

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"tycos/internal/core"
	"tycos/internal/obs"
	"tycos/internal/series"
)

// testSearchOpts is the shared confirmation-search configuration of the
// suite: small enough to keep N searches fast, LMN so the noise pruning
// paths are exercised.
func testSearchOpts() core.Options {
	return core.Options{
		SMin: 8, SMax: 24, TDMax: 6,
		Sigma:   0.25,
		Variant: core.VariantLMN,
		Seed:    7,
	}
}

// testFleet builds an anchor plus nCands candidates of length n. Candidates
// listed in planted carry a delayed, lightly noised copy of the anchor over
// a mid-series segment (the ground-truth hits); all others are independent
// AR(1) noise the screen should prune and the search should score at zero
// windows.
func testFleet(n, nCands int, planted map[int]int, seed int64) (series.Series, []series.Series) {
	rng := rand.New(rand.NewSource(seed))
	ar := func() []float64 {
		v := make([]float64, n)
		var a float64
		for i := range v {
			a = 0.9*a + rng.NormFloat64()
			v[i] = a
		}
		return v
	}
	anchor := series.New("anchor", ar())
	cands := make([]series.Series, nCands)
	segLen := n / 4
	start := n / 4
	for i := range cands {
		v := ar()
		if delay, ok := planted[i]; ok {
			for j := start; j < start+segLen && j+delay < n; j++ {
				v[j+delay] = anchor.Values[j] + 0.05*rng.NormFloat64()
			}
		}
		cands[i] = series.New(fmt.Sprintf("cand%02d", i), v)
	}
	return anchor, cands
}

// independentRanking reproduces the documented Discover contract by hand: N
// independent SearchContext calls with CandidateSeed-derived seeds, scored by
// best accepted window, sorted score-descending with the index tie-break and
// cut to topK.
func independentRanking(t *testing.T, anchor series.Series, cands []series.Series, sOpts core.Options, topK int) []Candidate {
	t.Helper()
	var scored []Candidate
	for i, cand := range cands {
		n := anchor.Len()
		if cand.Len() < n {
			n = cand.Len()
		}
		ax, err := anchor.Slice(0, n-1)
		if err != nil {
			t.Fatal(err)
		}
		cx, err := cand.Slice(0, n-1)
		if err != nil {
			t.Fatal(err)
		}
		o := sOpts
		o.Seed = CandidateSeed(sOpts.Seed, i)
		o.RestartWorkers = 1
		res, err := core.SearchContext(context.Background(), series.MustPair(ax, cx), o)
		if err != nil {
			t.Fatalf("candidate %d: %v", i, err)
		}
		res.Stats = res.Stats.Deterministic()
		if len(res.Windows) == 0 {
			continue
		}
		best := res.Windows[0].MI
		for _, w := range res.Windows[1:] {
			if w.MI > best {
				best = w.MI
			}
		}
		scored = append(scored, Candidate{Name: cand.Name, Index: i, Score: best, Result: res})
	}
	// Insertion sort keeps the tie-break explicit: score descending, then
	// fleet index ascending.
	for i := 1; i < len(scored); i++ {
		for j := i; j > 0; j-- {
			a, b := scored[j-1], scored[j]
			if b.Score > a.Score || (b.Score == a.Score && b.Index < a.Index) {
				scored[j-1], scored[j] = b, a
			} else {
				break
			}
		}
	}
	if len(scored) > topK {
		scored = scored[:topK]
	}
	return scored
}

// TestDiscoverDifferentialUnscreened is the differential property: with
// screening disabled, Discover must rank exactly as N independent searches
// sorted by score.
func TestDiscoverDifferentialUnscreened(t *testing.T) {
	anchor, cands := testFleet(200, 9, map[int]int{1: 0, 4: 3, 7: 5}, 21)
	sOpts := testSearchOpts()
	got, err := Discover(context.Background(), anchor, cands, Options{
		Search: sOpts, TopK: 5, Screen: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := independentRanking(t, anchor, cands, sOpts, 5)
	if !reflect.DeepEqual(got.Ranked, want) {
		t.Errorf("Discover ranking diverges from independent searches:\n got %+v\nwant %+v", got.Ranked, want)
	}
	if got.Stats.Searched != len(cands) || got.Stats.Screened != 0 || got.Stats.Pruned != 0 {
		t.Errorf("unscreened stats off: %+v", got.Stats)
	}
	if got.Partial {
		t.Error("uncancelled discovery marked partial")
	}
}

// TestDiscoverScreenRecall is the recall property: screening may prune, but
// never a candidate whose confirmed score clears the adaptive threshold. The
// unscreened run defines the ground truth.
func TestDiscoverScreenRecall(t *testing.T) {
	anchor, cands := testFleet(200, 12, map[int]int{0: 0, 3: 2, 6: 4, 10: 6}, 33)
	// A 32-sample screen window at a 0.9 bar: wide enough that AR(1) noise
	// rarely clears it, while the planted near-exact linear segments always
	// do — so the test exercises real pruning. Sigma is raised to 0.45 so
	// the search itself rejects the spurious sub-0.4 MI windows AR(1) noise
	// throws up: the recall contract is about real correlations clearing the
	// adaptive bar, and it can only be stated where the acceptance threshold
	// separates signal from noise.
	opts := Options{Search: testSearchOpts(), TopK: 6, ScreenWindow: 32, ScreenThreshold: 0.9}
	opts.Search.Sigma = 0.45

	opts.Screen = false
	ref, err := Discover(context.Background(), anchor, cands, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Ranked) == 0 {
		t.Fatal("reference discovery found nothing; the fixture is broken")
	}

	opts.Screen = true
	screened, err := Discover(context.Background(), anchor, cands, opts)
	if err != nil {
		t.Fatal(err)
	}
	if screened.Stats.Pruned == 0 {
		t.Error("screen pruned nothing; the test exercises no pruning")
	}
	byIndex := map[int]Candidate{}
	for _, c := range screened.Ranked {
		byIndex[c.Index] = c
	}
	for _, c := range ref.Ranked {
		if c.Score < ref.Threshold {
			continue
		}
		got, ok := byIndex[c.Index]
		if !ok {
			t.Errorf("screen dropped %s (score %.4f ≥ threshold %.4f)", c.Name, c.Score, ref.Threshold)
			continue
		}
		if !reflect.DeepEqual(got, c) {
			t.Errorf("screened result for %s differs from reference:\n got %+v\nwant %+v", c.Name, got, c)
		}
	}
}

// recordSink captures events and counters for stream comparison. Phase
// timings are recorded by name only — durations are wall-clock.
type recordSink struct {
	mu      sync.Mutex
	entries []string
}

func (r *recordSink) Event(e obs.Event) {
	r.mu.Lock()
	r.entries = append(r.entries, fmt.Sprintf("event %#v", e))
	r.mu.Unlock()
}

func (r *recordSink) Count(name string, delta int64) {
	r.mu.Lock()
	r.entries = append(r.entries, fmt.Sprintf("count %s %d", name, delta))
	r.mu.Unlock()
}

func (r *recordSink) PhaseEnd(p obs.Phase, _ time.Duration) {
	r.mu.Lock()
	r.entries = append(r.entries, fmt.Sprintf("phase %s", p))
	r.mu.Unlock()
}

// TestDiscoverWorkersByteIdentical is the determinism suite: results, the
// full event stream, the counter stream and the phase sequence must be
// byte-identical for every worker count (run under -race in CI).
func TestDiscoverWorkersByteIdentical(t *testing.T) {
	anchor, cands := testFleet(200, 10, map[int]int{2: 0, 5: 4, 8: 6}, 55)
	run := func(workers int) (Result, []string) {
		sink := &recordSink{}
		res, err := Discover(context.Background(), anchor, cands, Options{
			Search: testSearchOpts(), TopK: 4, Screen: true,
			Workers: workers, Observer: sink,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res, sink.entries
	}
	refRes, refStream := run(1)
	for _, workers := range []int{2, 8} {
		res, stream := run(workers)
		if !reflect.DeepEqual(res, refRes) {
			t.Errorf("workers=%d result diverges from workers=1:\n got %+v\nwant %+v", workers, res, refRes)
		}
		if !reflect.DeepEqual(stream, refStream) {
			t.Errorf("workers=%d observation stream diverges from workers=1 (%d vs %d entries)", workers, len(stream), len(refStream))
			for i := 0; i < len(stream) && i < len(refStream); i++ {
				if stream[i] != refStream[i] {
					t.Errorf("first divergence at entry %d:\n got %s\nwant %s", i, stream[i], refStream[i])
					break
				}
			}
		}
	}
}

// memJournal is an in-memory SweepCheckpoint for resume tests.
type memJournal struct {
	mu sync.Mutex
	m  map[string]core.Result
}

func newMemJournal() *memJournal { return &memJournal{m: map[string]core.Result{}} }

func (j *memJournal) key(x, y string) string { return x + "\x00" + y }

func (j *memJournal) Lookup(x, y string) (core.Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	r, ok := j.m[j.key(x, y)]
	return r, ok
}

func (j *memJournal) Record(x, y string, r core.Result) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.m[j.key(x, y)] = r
	return nil
}

// TestDiscoverJournalResume proves the resume contract: a second discovery
// over a journal populated by the first replays every survivor — zero new
// searches — and returns a byte-identical ranking.
func TestDiscoverJournalResume(t *testing.T) {
	anchor, cands := testFleet(200, 8, map[int]int{1: 0, 5: 3}, 77)
	journal := newMemJournal()
	opts := Options{Search: testSearchOpts(), TopK: 4, Screen: true, Journal: journal}

	first, err := Discover(context.Background(), anchor, cands, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Searched == 0 || first.Stats.Replayed != 0 {
		t.Fatalf("first run stats off: %+v", first.Stats)
	}

	sink := &recordSink{}
	opts.Observer = sink
	second, err := Discover(context.Background(), anchor, cands, opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.Replayed != first.Stats.Searched || second.Stats.Searched != 0 {
		t.Errorf("resume did not replay: first %+v, second %+v", first.Stats, second.Stats)
	}
	// Replayed stats differ only in the Searched/Replayed split.
	a, b := first.Stats, second.Stats
	a.Searched, a.Replayed = 0, 0
	b.Searched, b.Replayed = 0, 0
	if a != b {
		t.Errorf("stats beyond the searched/replayed split diverge: %+v vs %+v", first.Stats, second.Stats)
	}
	if !reflect.DeepEqual(first.Ranked, second.Ranked) || first.Threshold != second.Threshold {
		t.Errorf("resumed ranking diverges:\n got %+v\nwant %+v", second.Ranked, first.Ranked)
	}
	replayed := 0
	for _, e := range sink.entries {
		if containsStr(e, "PairFinished") && containsStr(e, "FromCheckpoint:true") {
			replayed++
		}
	}
	if replayed != second.Stats.Replayed {
		t.Errorf("FromCheckpoint events = %d, want %d", replayed, second.Stats.Replayed)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestDiscoverSeedChangesInvalidateJournal: a journal written under one root
// seed must not answer a discovery under another — the fingerprint covers
// the seed.
func TestDiscoverSeedChangesInvalidateJournal(t *testing.T) {
	anchor, cands := testFleet(160, 4, map[int]int{0: 0}, 91)
	journal := newMemJournal()
	opts := Options{Search: testSearchOpts(), TopK: 3, Journal: journal}
	if _, err := Discover(context.Background(), anchor, cands, opts); err != nil {
		t.Fatal(err)
	}
	opts.Search.Seed = 8 // different root seed
	second, err := Discover(context.Background(), anchor, cands, opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.Replayed != 0 {
		t.Errorf("journal replayed %d results across a seed change", second.Stats.Replayed)
	}
}

// TestDiscoverCancelledIsPartial: a pre-cancelled context resolves nothing
// and marks the result partial, with the whole fleet unfinished.
func TestDiscoverCancelledIsPartial(t *testing.T) {
	anchor, cands := testFleet(160, 6, nil, 13)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Discover(ctx, anchor, cands, Options{Search: testSearchOpts(), Screen: false})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Error("cancelled discovery not marked partial")
	}
	if res.Stats.Unfinished != len(cands) {
		t.Errorf("Unfinished = %d, want %d", res.Stats.Unfinished, len(cands))
	}
	if len(res.Ranked) != 0 {
		t.Errorf("cancelled discovery ranked %d candidates", len(res.Ranked))
	}
}

// TestDiscoverValidation covers the malformed-input errors and the per-
// candidate failure path.
func TestDiscoverValidation(t *testing.T) {
	anchor, cands := testFleet(160, 3, nil, 17)
	if _, err := Discover(context.Background(), series.New("empty", nil), cands, Options{Search: testSearchOpts()}); err == nil {
		t.Error("empty anchor must fail")
	}
	if _, err := Discover(context.Background(), anchor, nil, Options{Search: testSearchOpts()}); err == nil {
		t.Error("empty fleet must fail")
	}
	// A candidate too short for the search surfaces in Errors, not as a
	// Discover error.
	short := append([]series.Series{}, cands...)
	short[1] = series.New("stub", []float64{1, 2, 3})
	res, err := Discover(context.Background(), anchor, short, Options{Search: testSearchOpts(), Screen: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Failed != 1 || len(res.Errors) != 1 || res.Errors[0].Name != "stub" {
		t.Errorf("short candidate not reported: stats %+v errors %+v", res.Stats, res.Errors)
	}
	// A screen window below two samples fails every candidate with the
	// baseline's range error at the candidate's aligned length.
	short[1] = series.New("short", cands[1].Values[:100])
	res, err = Discover(context.Background(), anchor, short, Options{Search: testSearchOpts(), Screen: true, ScreenWindow: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 3 || res.Errors[1].Err != "baseline: window size 1 out of range (n=100)" {
		t.Errorf("screen window 1 not reported per candidate: errors %+v", res.Errors)
	}
}

// TestCandidateSeedProperties: seeds are stable, index-sensitive and
// independent of anything but (root, index).
func TestCandidateSeedProperties(t *testing.T) {
	seen := map[int64]int{}
	for i := 0; i < 64; i++ {
		s := CandidateSeed(7, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between candidates %d and %d", prev, i)
		}
		seen[s] = i
		if s != CandidateSeed(7, i) {
			t.Fatalf("seed for candidate %d unstable", i)
		}
	}
	if CandidateSeed(7, 0) == CandidateSeed(8, 0) {
		t.Error("root seed does not reach the candidate seed")
	}
}

// TestScreenDelays: the grid is symmetric, holds delay 0 exactly once and
// never exceeds TDMax.
func TestScreenDelays(t *testing.T) {
	grid := screenDelays(nil, 10, 3)
	want := []int{0, 3, -3, 6, -6, 9, -9}
	if !reflect.DeepEqual(grid, want) {
		t.Errorf("screenDelays(10,3) = %v, want %v", grid, want)
	}
	if got := screenDelays(nil, 0, 1); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("screenDelays(0,1) = %v, want [0]", got)
	}
}

// TestDelayAlign: delay tau pairs the anchor's window at a with the
// candidate's at a+tau, for every start where both windows fit.
func TestDelayAlign(t *testing.T) {
	const n, size = 5, 2
	for tau := -7; tau <= 7; tau++ {
		a, b, count := delayStarts(n, size, tau)
		want := 0
		for i := 0; i+size <= n; i++ {
			if j := i + tau; j >= 0 && j+size <= n {
				if want == 0 && (i != a || j != b) {
					t.Errorf("tau=%d: first pair at (%d, %d), want (%d, %d)", tau, a, b, i, j)
				}
				want++
			}
		}
		if max(count, 0) != want {
			t.Errorf("tau=%d: %d window pairs, want %d", tau, count, want)
		}
	}
}

// TestDiscoverScreenPrunesFlatline: a flatlined candidate is degenerate at
// every window and must be pruned without poisoning the stats — the
// baseline's degenerate-window contract surfacing at the discovery layer.
func TestDiscoverScreenPrunesFlatline(t *testing.T) {
	anchor, cands := testFleet(160, 3, map[int]int{0: 0}, 29)
	flat := make([]float64, 160)
	for i := range flat {
		flat[i] = 0.1
	}
	cands[2] = series.New("flatline", flat)
	res, err := Discover(context.Background(), anchor, cands, Options{Search: testSearchOpts(), Screen: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DegenerateWindows == 0 {
		t.Error("flatline candidate produced no degenerate windows")
	}
	for _, c := range res.Ranked {
		if c.Name == "flatline" {
			t.Error("flatline candidate was ranked")
		}
	}
	if res.Stats.Pruned == 0 {
		t.Error("nothing pruned despite the flatline candidate")
	}
}
