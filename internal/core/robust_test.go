package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tycos/internal/faultinject"
	"tycos/internal/series"
	"tycos/internal/window"
)

// sweepSeries builds named independent-noise series for sweep tests.
func sweepSeries(names ...string) []series.Series {
	ss := make([]series.Series, len(names))
	for i, name := range names {
		p := testPair(int64(100+i), 250, 60, 140, 0)
		ss[i] = series.New(name, p.X.Values)
	}
	return ss
}

func TestSearchContextCancelledImmediately(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := testPair(3, 300, 120, 180, 0)
	res, err := SearchContext(ctx, p, defaultOpts())
	if err != nil {
		t.Fatalf("cancelled search must not error: %v", err)
	}
	if !res.Partial {
		t.Error("cancelled search must report Partial")
	}
	if res.Stats.StopReason != StopCancelled {
		t.Errorf("StopReason = %q, want %q", res.Stats.StopReason, StopCancelled)
	}
	if len(res.Windows) != 0 {
		t.Errorf("search cancelled before any climb returned windows: %v", res.Windows)
	}
}

func TestSearchContextDeadlineExceeded(t *testing.T) {
	p := testPair(3, 300, 120, 180, 0)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	res, err := SearchContext(ctx, p, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || res.Stats.StopReason != StopDeadline {
		t.Errorf("expired context: Partial=%v StopReason=%q, want partial deadline", res.Partial, res.Stats.StopReason)
	}
}

func TestMaxEvaluationsPrefixConsistent(t *testing.T) {
	p := testPair(23, 600, 80, 150, 0)
	opts := defaultOpts()
	opts.Variant = VariantLMN
	var fullCands []window.Scored
	opts.onCandidate = func(w window.Scored) { fullCands = append(fullCands, w) }
	full, err := Search(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if full.Partial || full.Stats.StopReason != StopCompleted {
		t.Fatalf("uninterrupted run reported Partial=%v StopReason=%q", full.Partial, full.Stats.StopReason)
	}
	sawPartial := false
	for _, budget := range []int{40, 200, 1000, 5000} {
		o := opts
		o.MaxEvaluations = budget
		var cands []window.Scored
		o.onCandidate = func(w window.Scored) { cands = append(cands, w) }
		a, err := Search(p, o)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		o.onCandidate = nil
		b, err := Search(p, o)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		// Timing is wall-clock and varies run to run; the counters must not.
		a.Stats.Timing, b.Stats.Timing = Timing{}, Timing{}
		if len(a.Windows) != len(b.Windows) || a.Stats != b.Stats {
			t.Errorf("budget %d: non-deterministic stop (windows %d vs %d, stats %+v vs %+v)",
				budget, len(a.Windows), len(b.Windows), a.Stats, b.Stats)
		}
		// Prefix consistency: the interrupted run accepts exactly the climb
		// outcomes the uninterrupted run accepts over the scanned region —
		// no extra, reordered or mutated candidates from the early stop.
		if len(cands) > len(fullCands) {
			t.Fatalf("budget %d: more candidates (%d) than the full run (%d)", budget, len(cands), len(fullCands))
		}
		for i := range cands {
			if cands[i] != fullCands[i] {
				t.Errorf("budget %d: candidate %d = %v, full run has %v", budget, i, cands[i], fullCands[i])
			}
		}
		switch a.Stats.StopReason {
		case StopBudget:
			sawPartial = true
			if !a.Partial {
				t.Errorf("budget %d: StopBudget without Partial", budget)
			}
			if a.Stats.WindowsEvaluated < budget {
				t.Errorf("budget %d: stopped at %d evaluations, before the budget", budget, a.Stats.WindowsEvaluated)
			}
		case StopCompleted:
			if a.Partial {
				t.Errorf("budget %d: completed run marked Partial", budget)
			}
			if len(a.Windows) != len(full.Windows) {
				t.Errorf("budget %d: completed run differs from unbudgeted run", budget)
			}
		default:
			t.Errorf("budget %d: unexpected stop reason %q", budget, a.Stats.StopReason)
		}
	}
	if !sawPartial {
		t.Errorf("no tested budget cut the search short; full run used %d evaluations", full.Stats.WindowsEvaluated)
	}
}

// The incremental scorer once accumulated its digamma sum in map-iteration
// order, which made VariantLM/LMN trajectories drift across runs at the ulp
// level — and with them every Stats counter. Bit-exact repeatability is what
// the budget/cancellation contract stands on, so it gets its own regression.
func TestSearchDeterministicIncrementalVariant(t *testing.T) {
	p := testPair(23, 600, 80, 150, 0)
	opts := defaultOpts()
	opts.Variant = VariantLMN
	a, err := Search(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		b, err := Search(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Timing is wall-clock and varies run to run; the counters must not.
		a.Stats.Timing, b.Stats.Timing = Timing{}, Timing{}
		if a.Stats != b.Stats {
			t.Fatalf("run %d stats differ: %+v vs %+v", i, a.Stats, b.Stats)
		}
		if len(a.Windows) != len(b.Windows) {
			t.Fatalf("run %d window count differs", i)
		}
		for j := range a.Windows {
			if a.Windows[j] != b.Windows[j] {
				t.Fatalf("run %d window %d differs: %v vs %v", i, j, a.Windows[j], b.Windows[j])
			}
		}
	}
}

func TestSearchRejectsNonFiniteInput(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		p := testPair(7, 100, 20, 60, 0)
		p.Y.Values[42] = bad
		_, err := Search(p, defaultOpts())
		if err == nil {
			t.Fatalf("value %v accepted", bad)
		}
		for _, want := range []string{"index 42", "FillMissing", `"y"`} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not mention %s", err, want)
			}
		}
	}
}

func TestSearchAllContextPanicIsolation(t *testing.T) {
	defer faultinject.Clear()
	faultinject.Set("a/c", faultinject.Fault{Panic: "boom"})
	ss := sweepSeries("a", "b", "c")
	results := SearchAllContext(context.Background(), ss, defaultOpts(), SweepOptions{Parallelism: 2})
	if len(results) != 3 {
		t.Fatalf("want 3 pairs, got %d", len(results))
	}
	for _, pr := range results {
		name := pr.XName + "/" + pr.YName
		if name == "a/c" {
			if pr.Err == nil {
				t.Fatal("panicking pair reported no error")
			}
			if !strings.Contains(pr.Err.Error(), "boom") || !strings.Contains(pr.Err.Error(), "goroutine") {
				t.Errorf("panic error lacks message or stack: %v", pr.Err)
			}
			continue
		}
		if pr.Err != nil {
			t.Errorf("healthy pair %s failed: %v", name, pr.Err)
		}
		if pr.Result.Stats.StopReason != StopCompleted {
			t.Errorf("healthy pair %s did not complete: %q", name, pr.Result.Stats.StopReason)
		}
	}
}

func TestSearchAllContextRetriesTransientFailure(t *testing.T) {
	defer faultinject.Clear()
	transient := errors.New("transient")
	ss := sweepSeries("a", "b")

	faultinject.Set("a/b", faultinject.Fault{Err: transient, Times: 1})
	res := SearchAllContext(context.Background(), ss, defaultOpts(), SweepOptions{Retries: 2})
	if res[0].Err != nil {
		t.Fatalf("retry did not recover the transient failure: %v", res[0].Err)
	}
	if res[0].Attempts != 2 {
		t.Errorf("Attempts = %d, want 2", res[0].Attempts)
	}

	// Without retries the same fault fails the pair — once.
	faultinject.Set("a/b", faultinject.Fault{Err: transient, Times: 1})
	res = SearchAllContext(context.Background(), ss, defaultOpts(), SweepOptions{})
	if res[0].Err == nil || !errors.Is(res[0].Err, transient) {
		t.Fatalf("unretried transient failure not surfaced: %v", res[0].Err)
	}
	if res[0].Attempts != 1 {
		t.Errorf("Attempts = %d, want 1", res[0].Attempts)
	}
}

func TestSearchAllContextPairTimeoutReturnsPartial(t *testing.T) {
	ss := sweepSeries("a", "b")
	res := SearchAllContext(context.Background(), ss, defaultOpts(), SweepOptions{PairTimeout: time.Nanosecond})
	if res[0].Err != nil {
		t.Fatalf("timed-out pair must not error: %v", res[0].Err)
	}
	if !res[0].Result.Partial || res[0].Result.Stats.StopReason != StopDeadline {
		t.Errorf("timed-out pair: Partial=%v StopReason=%q, want partial deadline",
			res[0].Result.Partial, res[0].Result.Stats.StopReason)
	}
}

func TestSearchAllContextCancelMidSweep(t *testing.T) {
	defer faultinject.Clear()
	faultinject.Set("a/b", faultinject.Fault{Delay: 200 * time.Millisecond})
	ss := sweepSeries("a", "b", "c", "d")
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	results := SearchAllContext(ctx, ss, defaultOpts(), SweepOptions{Parallelism: 1})
	if len(results) != 6 {
		t.Fatalf("want 6 pairs, got %d", len(results))
	}
	// The in-flight pair finished its (empty) search under the cancelled
	// context; every undispatched pair reports the cancellation.
	first := results[0]
	if first.Err != nil || !first.Result.Partial || first.Result.Stats.StopReason != StopCancelled {
		t.Errorf("in-flight pair: Err=%v Partial=%v StopReason=%q", first.Err, first.Result.Partial, first.Result.Stats.StopReason)
	}
	for _, pr := range results[1:] {
		if !errors.Is(pr.Err, context.Canceled) {
			t.Errorf("undispatched pair (%s,%s): Err=%v, want context.Canceled", pr.XName, pr.YName, pr.Err)
		}
	}
}

func TestSearchAllContextWorkerCapAndNoLeak(t *testing.T) {
	defer faultinject.Clear()
	faultinject.Set("a/b", faultinject.Fault{Delay: 150 * time.Millisecond})
	ss := sweepSeries("a", "b")
	before := runtime.NumGoroutine()
	done := make(chan struct{})
	go func() {
		defer close(done)
		SearchAllContext(context.Background(), ss, defaultOpts(), SweepOptions{Parallelism: 64})
	}()
	time.Sleep(50 * time.Millisecond)
	// One job → one worker, regardless of the requested parallelism.
	if during := runtime.NumGoroutine(); during > before+4 {
		t.Errorf("goroutines during 1-pair sweep: %d (baseline %d); worker cap not applied", during, before)
	}
	<-done
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+1 {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

// memCheckpoint is an in-memory SweepCheckpoint for core-level tests (the
// JSONL journal lives in internal/checkpoint, which imports this package).
type memCheckpoint struct {
	mu   sync.Mutex
	done map[string]Result
}

func (m *memCheckpoint) Lookup(x, y string) (Result, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.done[x+"/"+y]
	return r, ok
}

func (m *memCheckpoint) Record(x, y string, r Result) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.done == nil {
		m.done = make(map[string]Result)
	}
	m.done[x+"/"+y] = r
	return nil
}

func TestSearchAllContextDoesNotCheckpointPartialResults(t *testing.T) {
	ss := sweepSeries("a", "b")
	ck := &memCheckpoint{}
	res := SearchAllContext(context.Background(), ss, defaultOpts(), SweepOptions{
		PairTimeout: time.Nanosecond,
		Checkpoint:  ck,
	})
	if !res[0].Result.Partial {
		t.Fatal("expected a partial pair")
	}
	if len(ck.done) != 0 {
		t.Errorf("partial result was journaled: %v", ck.done)
	}
	// A completed pair is journaled and restored on the next sweep.
	res = SearchAllContext(context.Background(), ss, defaultOpts(), SweepOptions{Checkpoint: ck})
	if res[0].Err != nil || res[0].FromCheckpoint {
		t.Fatalf("first completed run: Err=%v FromCheckpoint=%v", res[0].Err, res[0].FromCheckpoint)
	}
	res = SearchAllContext(context.Background(), ss, defaultOpts(), SweepOptions{Checkpoint: ck})
	if !res[0].FromCheckpoint || res[0].Attempts != 0 {
		t.Errorf("journaled pair recomputed: FromCheckpoint=%v Attempts=%d", res[0].FromCheckpoint, res[0].Attempts)
	}
}

func TestConcurrentSweepsWithFaultInjection(t *testing.T) {
	defer faultinject.Clear()
	faultinject.Set("a/b", faultinject.Fault{Panic: "races"})
	ss := sweepSeries("a", "b", "c")
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results := SearchAllContext(context.Background(), ss, defaultOpts(), SweepOptions{Parallelism: 3, Retries: 1})
			for _, pr := range results {
				if pr.XName == "a" && pr.YName == "b" {
					continue // always panics; both attempts fail by design
				}
				if pr.Err != nil {
					t.Errorf("pair (%s,%s): %v", pr.XName, pr.YName, pr.Err)
				}
			}
		}()
	}
	wg.Wait()
}
