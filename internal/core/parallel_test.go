package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"tycos/internal/faultinject"
	"tycos/internal/series"
	"tycos/internal/window"
)

// parallelTestOpts spans several restart segments (span = 4·SMax = 240 scan
// positions) so worker counts > 1 actually exercise concurrent segments.
func parallelTestOpts() Options {
	o := defaultOpts()
	o.Variant = VariantLMN
	return o
}

// parallelTestPair embeds two correlated regions far apart so distinct
// segments both produce candidates. Both couplings are written directly into
// one noise pair (rather than mixing two single-region pairs, which dilutes
// each region's correlation below what an unbiased estimator can separate
// from noise).
func parallelTestPair(n int) series.Pair {
	rng := rand.New(rand.NewSource(11))
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	// AR(1) drivers, as in TestSearchRecoversTimeDelay: autocorrelated
	// signals give partial alignments partial MI, so the climb has a
	// gradient toward the true non-zero delays.
	ar := 0.0
	for i := 150; i <= 230; i++ {
		ar = 0.9*ar + rng.NormFloat64()
		x[i] = ar
		y[i+2] = x[i] + 0.1*rng.NormFloat64()
	}
	ar = 0.0
	for i := n - 300; i <= n-220; i++ {
		ar = 0.9*ar + rng.NormFloat64()
		x[i] = ar
		y[i-1] = -x[i] + 0.1*rng.NormFloat64()
	}
	return series.MustPair(series.New("x", x), series.New("y", y))
}

// TestPlanSegmentsCoversScanPositions pins the segment plan's invariants: it
// is a pure function of (n, options), segments tile [0, lastStart] without
// gaps or overlap, and small inputs degenerate to a single segment.
func TestPlanSegmentsCoversScanPositions(t *testing.T) {
	opts := parallelTestOpts().withDefaults()
	for _, n := range []int{70, 250, 1000, 1501, 5000} {
		segs := planSegments(n, opts)
		if len(segs) == 0 {
			t.Fatalf("n=%d: empty plan", n)
		}
		lastStart := n - opts.SMin
		if segs[0].from != 0 {
			t.Errorf("n=%d: first segment starts at %d", n, segs[0].from)
		}
		for i, s := range segs {
			if s.index != i {
				t.Errorf("n=%d: segment %d has index %d", n, i, s.index)
			}
			if i > 0 && s.from != segs[i-1].limit {
				t.Errorf("n=%d: gap/overlap between segments %d and %d", n, i-1, i)
			}
			if s.from >= s.limit {
				t.Errorf("n=%d: empty segment %d [%d, %d)", n, i, s.from, s.limit)
			}
		}
		if got := segs[len(segs)-1].limit; got != lastStart+1 {
			t.Errorf("n=%d: plan ends at %d, want %d", n, got, lastStart+1)
		}
	}
	if segs := planSegments(70, opts); len(segs) != 1 {
		t.Errorf("small input: got %d segments, want 1", len(segs))
	}
}

func TestRestartWorkersResolution(t *testing.T) {
	opts := parallelTestOpts().withDefaults()
	opts.RestartWorkers = 8
	if got := restartWorkers(opts, 3); got != 3 {
		t.Errorf("clamp to segments: got %d, want 3", got)
	}
	opts.MaxEvaluations = 100
	if got := restartWorkers(opts, 3); got != 1 {
		t.Errorf("budget must force sequential: got %d, want 1", got)
	}
	opts.MaxEvaluations = 0
	opts.RestartWorkers = 0
	if got := restartWorkers(opts, 1); got != 1 {
		t.Errorf("one segment: got %d workers, want 1", got)
	}
}

// TestRestartWorkersByteIdentical is the tentpole guarantee: for the same
// seed, every RestartWorkers value returns byte-identical windows, stats and
// observer event streams.
func TestRestartWorkersByteIdentical(t *testing.T) {
	p := parallelTestPair(1500)
	type outcome struct {
		res    Result
		events []string
		counts map[string]int64
	}
	run := func(workers int) outcome {
		opts := parallelTestOpts()
		opts.RestartWorkers = workers
		sink := newCollectSink()
		opts.Observer = sink
		res, err := Search(p, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		res.Stats.Timing = Timing{}
		evs := make([]string, len(sink.events))
		for i, e := range sink.events {
			evs[i] = fmt.Sprintf("%s%+v", e.Kind(), e)
		}
		return outcome{res: res, events: evs, counts: sink.counts}
	}
	base := run(1)
	if len(base.res.Windows) < 2 {
		t.Fatalf("want ≥2 windows from the two embedded regions, got %d", len(base.res.Windows))
	}
	if segs := planSegments(p.Len(), parallelTestOpts().withDefaults()); len(segs) < 4 {
		t.Fatalf("test needs ≥4 segments to be meaningful, plan has %d", len(segs))
	}
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if !reflect.DeepEqual(got.res, base.res) {
			t.Errorf("workers=%d: result differs from workers=1\n got: %+v\nwant: %+v", workers, got.res, base.res)
		}
		if !reflect.DeepEqual(got.events, base.events) {
			t.Errorf("workers=%d: event stream differs from workers=1 (%d vs %d events)", workers, len(got.events), len(base.events))
			for i := range got.events {
				if i < len(base.events) && got.events[i] != base.events[i] {
					t.Errorf("first divergence at event %d:\n got: %s\nwant: %s", i, got.events[i], base.events[i])
					break
				}
			}
		}
		if !reflect.DeepEqual(got.counts, base.counts) {
			t.Errorf("workers=%d: counters differ from workers=1\n got: %v\nwant: %v", workers, got.counts, base.counts)
		}
	}
}

// TestRestartWorkersByteIdenticalAllVariants runs the byte-identity check
// across every variant — the incremental scorers carry the most per-worker
// state and are the likeliest to leak schedule dependence.
func TestRestartWorkersByteIdenticalAllVariants(t *testing.T) {
	p := parallelTestPair(900)
	for _, v := range []Variant{VariantL, VariantLN, VariantLM, VariantLMN} {
		opts := parallelTestOpts()
		opts.Variant = v
		opts.RestartWorkers = 1
		base, err := Search(p, opts)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		base.Stats.Timing = Timing{}
		opts.RestartWorkers = 4
		got, err := Search(p, opts)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		got.Stats.Timing = Timing{}
		if !reflect.DeepEqual(got, base) {
			t.Errorf("%v: workers=4 differs from workers=1\n got: %+v\nwant: %+v", v, got, base)
		}
	}
}

// TestSweepDeterministicAcrossSchedules crosses pair-level Parallelism with
// in-pair RestartWorkers and requires the full sweep output to be invariant.
func TestSweepDeterministicAcrossSchedules(t *testing.T) {
	ss := []series.Series{
		testPair(21, 400, 100, 170, 1).X,
		testPair(21, 400, 100, 170, 1).Y,
		testPair(22, 400, 200, 280, -2).Y,
	}
	ss[0].Name, ss[1].Name, ss[2].Name = "a", "b", "c"
	opts := parallelTestOpts()
	normalize := func(prs []PairResult) []PairResult {
		out := make([]PairResult, len(prs))
		copy(out, prs)
		for i := range out {
			out[i].Result.Stats.Timing = Timing{}
		}
		return out
	}
	var base []PairResult
	for _, par := range []int{1, 4} {
		for _, rw := range []int{1, 2, 8} {
			o := opts
			o.RestartWorkers = rw
			got := normalize(SearchAll(ss, o, par))
			if base == nil {
				base = got
				continue
			}
			if !reflect.DeepEqual(got, base) {
				t.Errorf("parallelism=%d restartWorkers=%d: sweep output differs\n got: %+v\nwant: %+v", par, rw, got, base)
			}
		}
	}
}

// TestConcurrentSearchesSharedObserver hammers one observer from several
// concurrent searches — the -race suite's food for the buffered-event replay
// and counter merge paths.
func TestConcurrentSearchesSharedObserver(t *testing.T) {
	p := parallelTestPair(900)
	sink := newCollectSink()
	var wg sync.WaitGroup
	results := make([]Result, 6)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := parallelTestOpts()
			opts.RestartWorkers = 4
			opts.Observer = sink
			res, err := Search(p, opts)
			if err != nil {
				t.Errorf("search %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		results[i].Stats.Timing = Timing{}
		results[0].Stats.Timing = Timing{}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Errorf("concurrent search %d differs from search 0", i)
		}
	}
	wantClimbs := int64(len(results)) * int64(results[0].Stats.Restarts)
	if got := sink.counts["restarts"]; got != wantClimbs {
		t.Errorf("shared observer restart counter: got %d, want %d", got, wantClimbs)
	}
}

// TestSegmentPanicIsolatedInSweep arms a panic inside one restart segment and
// verifies it surfaces through the parallel pool onto the search goroutine,
// where sweep-level fault isolation converts it into that pair's error — with
// the worker's stack — instead of killing the process.
func TestSegmentPanicIsolatedInSweep(t *testing.T) {
	defer faultinject.Clear()
	faultinject.Set(segmentFaultKey("a/b", 1), faultinject.Fault{Panic: "segment boom"})
	mk := func(name string, seed int64) series.Series {
		s := testPair(seed, 900, 100, 170, 1).X
		s.Name = name
		return s
	}
	ss := []series.Series{mk("a", 31), mk("b", 32), mk("c", 33)}
	opts := parallelTestOpts()
	opts.RestartWorkers = 4
	prs := SearchAllContext(context.Background(), ss, opts, SweepOptions{Parallelism: 2})
	if len(prs) != 3 {
		t.Fatalf("got %d pair results, want 3", len(prs))
	}
	var failed *PairResult
	for i := range prs {
		if prs[i].XName == "a" && prs[i].YName == "b" {
			failed = &prs[i]
		} else if prs[i].Err != nil {
			t.Errorf("pair (%s, %s) unexpectedly failed: %v", prs[i].XName, prs[i].YName, prs[i].Err)
		}
	}
	if failed == nil || failed.Err == nil {
		t.Fatal("armed pair did not fail")
	}
	msg := failed.Err.Error()
	if !strings.Contains(msg, "segment boom") {
		t.Errorf("pair error does not carry the panic value: %v", msg)
	}
	if !strings.Contains(msg, "restart worker stack") {
		t.Errorf("pair error does not carry the worker stack: %v", msg)
	}
}

// TestBudgetedSearchStaysSequentialAndPrefixConsistent pins the composition
// with PR 1 budgets: MaxEvaluations forces sequential segments, and the
// budgeted run's candidates remain a prefix of the full run's even when the
// options request many workers.
func TestBudgetedSearchStaysSequentialAndPrefixConsistent(t *testing.T) {
	p := parallelTestPair(900)
	opts := parallelTestOpts()
	opts.RestartWorkers = 8
	var full []string
	opts.onCandidate = func(c window.Scored) { full = append(full, fmt.Sprintf("%+v", c)) }
	if _, err := Search(p, opts); err != nil {
		t.Fatal(err)
	}
	var got []string
	opts.onCandidate = func(c window.Scored) { got = append(got, fmt.Sprintf("%+v", c)) }
	opts.MaxEvaluations = 500
	res, err := Search(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.StopReason != StopBudget {
		t.Fatalf("stop reason = %v, want %v", res.Stats.StopReason, StopBudget)
	}
	if len(got) > len(full) {
		t.Fatalf("budgeted run produced more candidates (%d) than the full run (%d)", len(got), len(full))
	}
	for i := range got {
		if got[i] != full[i] {
			t.Fatalf("candidate %d diverges:\n got: %s\nwant: %s", i, got[i], full[i])
		}
	}
}

// finishWithin runs f and fails the test binary if f has not returned after
// d. A stuck goroutine cannot be stopped, and an overflowed segment plan
// keeps appending segments, so the binary panics instead of letting later
// tests run beside a goroutine whose memory grows without bound.
func finishWithin(d time.Duration, what string, f func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		panic(fmt.Sprintf("%s did not return within %v", what, d))
	}
}

// TestHugeSMaxPlansAndSearchesLikeN pins that an SMax past the series length
// behaves like SMax = n. From SMax = 2^61 the product 4·SMax wraps to a
// negative value or zero, which would leave planSegments in a loop that
// never advances, and 100·MaxIdle + 2·SMax/Delta wraps negative, which
// would skip every climb.
func TestHugeSMaxPlansAndSearchesLikeN(t *testing.T) {
	const n = 200
	base := Options{SMin: 6, SMax: n}.withDefaults()
	want := planSegments(n, base)
	for _, sMax := range []int{n + 1, 1 << 61, 1 << 62, math.MaxInt} {
		opts := base
		opts.SMax = sMax
		var got []segment
		finishWithin(2*time.Second, fmt.Sprintf("planSegments(SMax=%d)", sMax), func() { got = planSegments(n, opts) })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("SMax=%d: plan %+v, want the SMax=n plan %+v", sMax, got, want)
		}
	}

	p := testPair(7, n, 60, 140, 0)
	for _, v := range []Variant{VariantL, VariantLN, VariantLM, VariantLMN} {
		opts := defaultOpts()
		opts.Variant = v
		opts.SMax = n
		ref, err := Search(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(ref.Windows) == 0 {
			t.Fatalf("%v: the SMax=n search found no windows to compare", v)
		}
		opts.SMax = 1 << 62
		var got Result
		finishWithin(10*time.Second, fmt.Sprintf("Search(%v, SMax=1<<62)", v), func() { got, err = Search(p, opts) })
		if err != nil {
			t.Fatal(err)
		}
		ref.Stats.Timing, got.Stats.Timing = Timing{}, Timing{}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%v: SMax=1<<62 gave %+v, want the SMax=n result %+v", v, got, ref)
		}
	}

	// BruteForce's start+SMax wraps negative at SMax = MaxInt, which would
	// skip every window from the third start on.
	small := testPair(7, 50, 15, 40, 0)
	opts := Options{SMin: 8, SMax: small.Len(), TDMax: 2, Sigma: 0.3, Seed: 1}
	ref, err := BruteForce(small, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.SMax = math.MaxInt
	got, err := BruteForce(small, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("BruteForce with SMax=MaxInt gave %+v, want the SMax=n result %+v", got, ref)
	}
}
