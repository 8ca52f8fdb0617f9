package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"tycos/internal/faultinject"
	"tycos/internal/obs"
	"tycos/internal/series"
)

// collectSink records every observation for payload-level assertions.
type collectSink struct {
	mu     sync.Mutex
	events []obs.Event
	counts map[string]int64
	phases map[obs.Phase]int
}

func newCollectSink() *collectSink {
	return &collectSink{counts: make(map[string]int64), phases: make(map[obs.Phase]int)}
}

func (c *collectSink) Event(e obs.Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

func (c *collectSink) Count(name string, delta int64) {
	c.mu.Lock()
	c.counts[name] += delta
	c.mu.Unlock()
}

func (c *collectSink) PhaseEnd(p obs.Phase, d time.Duration) {
	c.mu.Lock()
	c.phases[p]++
	c.mu.Unlock()
}

func (c *collectSink) kindCount(kind string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.events {
		if e.Kind() == kind {
			n++
		}
	}
	return n
}

// noisyPair builds a long noisy pair with one strong dependent segment —
// the shape that exercises both Section 6 pruning mechanisms.
func noisyPair(seed int64, n, segStart, segEnd int) series.Pair {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	for i := segStart; i <= segEnd; i++ {
		x[i] = rng.NormFloat64() * 2
		y[i] = x[i] + 0.05*rng.NormFloat64()
	}
	return series.MustPair(series.New("x", x), series.New("y", y))
}

// TestTraceMatchesStats is the acceptance check of the observability layer:
// the JSONL trace's ClimbFinished count equals Stats.Restarts, its
// CandidateAccepted count equals the number of returned windows, every phase
// is timed, and the trace's counter totals equal the Stats counters.
func TestTraceMatchesStats(t *testing.T) {
	p := testPair(43, 800, 200, 600, 0)
	var buf bytes.Buffer
	tw := obs.NewTraceWriter(&buf)
	metrics := obs.NewRegistry()

	opts := defaultOpts()
	opts.SMin, opts.SMax = 120, 300
	opts.Variant = VariantLMN
	opts.Observer = obs.Multi(tw, metrics)
	res, err := Search(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	type line struct {
		TS    string          `json:"ts"`
		Event string          `json:"event"`
		Data  json.RawMessage `json:"data"`
	}
	kinds := map[string]int{}
	var counterTotals map[string]int64
	phases := map[string]bool{}
	for i, raw := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ln line
		if err := json.Unmarshal([]byte(raw), &ln); err != nil {
			t.Fatalf("trace line %d is not JSON: %v\n%s", i, err, raw)
		}
		kinds[ln.Event]++
		switch ln.Event {
		case "Counters":
			if err := json.Unmarshal(ln.Data, &counterTotals); err != nil {
				t.Fatal(err)
			}
		case "PhaseFinished":
			var pd struct {
				Phase string `json:"phase"`
			}
			if err := json.Unmarshal(ln.Data, &pd); err != nil {
				t.Fatal(err)
			}
			phases[pd.Phase] = true
		}
	}

	if kinds["ClimbFinished"] != res.Stats.Restarts {
		t.Errorf("ClimbFinished events = %d, Stats.Restarts = %d", kinds["ClimbFinished"], res.Stats.Restarts)
	}
	if kinds["CandidateAccepted"] != len(res.Windows) {
		t.Errorf("CandidateAccepted events = %d, returned windows = %d", kinds["CandidateAccepted"], len(res.Windows))
	}
	if kinds["RestartStarted"] < kinds["ClimbFinished"] {
		t.Errorf("RestartStarted (%d) < ClimbFinished (%d)", kinds["RestartStarted"], kinds["ClimbFinished"])
	}
	for _, ph := range []string{"validate", "climb", "finalize"} {
		if !phases[ph] {
			t.Errorf("phase %q not timed in trace", ph)
		}
	}
	if phases["nullmodel"] {
		t.Error("nullmodel phase timed although SignificanceLevel is off")
	}
	wantCounters := map[string]int64{
		"windows_evaluated": int64(res.Stats.WindowsEvaluated),
		"restarts":          int64(res.Stats.Restarts),
		"mi_batch":          int64(res.Stats.MIBatch),
		"mi_incremental":    int64(res.Stats.MIIncremental),
		"pruned_directions": int64(res.Stats.PrunedDirections),
		"noise_blocks":      int64(res.Stats.NoiseBlocks),
	}
	for name, want := range wantCounters {
		if counterTotals[name] != want {
			t.Errorf("trace counter %s = %d, stats say %d", name, counterTotals[name], want)
		}
	}
	// The search's windows reach past the all-pairs bound, so both the
	// incremental estimators and the batch route for smaller windows do work.
	for _, name := range []string{"mi.ksg_estimates", "mi.inc_inserts", "mi.inc_removes", "mi.inc_refreshes", "mi.inc_requeries"} {
		if counterTotals[name] <= 0 {
			t.Errorf("incremental variant emitted no %s work", name)
		}
	}
	if hits := counterTotals["memo_hits"]; hits <= 0 || hits > int64(res.Stats.WindowsEvaluated) {
		t.Errorf("memo_hits = %d, want in (0, %d]", hits, res.Stats.WindowsEvaluated)
	}
	if pl, est := counterTotals["mi.plane_estimates"], counterTotals["mi.ksg_estimates"]; pl > est {
		t.Errorf("mi.plane_estimates = %d exceeds mi.ksg_estimates = %d", pl, est)
	}
	// A list is rescanned only for a point whose state the same removal
	// refreshes.
	if rq, rf := counterTotals["mi.inc_requeries"], counterTotals["mi.inc_refreshes"]; rq > rf {
		t.Errorf("mi.inc_requeries = %d exceeds mi.inc_refreshes = %d", rq, rf)
	}

	// The registry agrees with the trace.
	snap := metrics.Snapshot()
	if got := snap.Events["ClimbFinished"]; got != int64(res.Stats.Restarts) {
		t.Errorf("metrics ClimbFinished = %d, want %d", got, res.Stats.Restarts)
	}
	if snap.Phases[obs.PhaseClimb].Count != 1 {
		t.Errorf("climb phase sampled %d times, want 1", snap.Phases[obs.PhaseClimb].Count)
	}

	// Stats carries the same phase timings.
	if res.Stats.Timing.Total <= 0 || res.Stats.Timing.Climb <= 0 {
		t.Errorf("timing not populated: %+v", res.Stats.Timing)
	}
	if res.Stats.Timing.EvalsPerSec <= 0 {
		t.Errorf("EvalsPerSec = %v", res.Stats.Timing.EvalsPerSec)
	}

	// On L, whose every estimate is a batch one, the registry shows the
	// share of them that τ-planes served.
	opts.Variant = VariantL
	reg := obs.NewRegistry()
	opts.Observer = reg
	if _, err := Search(p, opts); err != nil {
		t.Fatal(err)
	}
	counters := reg.Snapshot().Counters
	if pl, est := counters["mi.plane_estimates"], counters["mi.ksg_estimates"]; pl <= 0 || pl > est {
		t.Errorf("L: mi.plane_estimates = %d, want in (0, mi.ksg_estimates = %d]", pl, est)
	}
}

// TestObserverDoesNotAlterSearch pins the contract that observability is
// read-only: windows and (timing aside) stats are identical with and
// without an observer.
func TestObserverDoesNotAlterSearch(t *testing.T) {
	p := noisyPair(3, 500, 220, 300)
	opts := defaultOpts()
	opts.Variant = VariantLMN
	plain, err := Search(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Observer = obs.Multi(obs.NewRegistry(), obs.NewTraceWriter(io.Discard))
	observed, err := Search(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	plain.Stats.Timing, observed.Stats.Timing = Timing{}, Timing{}
	if plain.Stats != observed.Stats {
		t.Errorf("observer changed stats: %+v vs %+v", plain.Stats, observed.Stats)
	}
	if len(plain.Windows) != len(observed.Windows) {
		t.Fatalf("observer changed window count: %d vs %d", len(plain.Windows), len(observed.Windows))
	}
	for i := range plain.Windows {
		if plain.Windows[i] != observed.Windows[i] {
			t.Errorf("window %d differs: %v vs %v", i, plain.Windows[i], observed.Windows[i])
		}
	}
}

// TestRegistryTalliesMatchStream checks the counting path. A search observed
// by the bare registry hands it one total per event kind; the same search
// observed through a fan-out to a registry and a trace streams every event.
// Both registries must end with the same event, counter and phase totals,
// on all four variants at 1 and 2 restart workers. The noise variants
// prune directions and skip noise blocks, and a search that accepts no
// window must leave no CandidateAccepted series behind, as the stream
// leaves none.
func TestRegistryTalliesMatchStream(t *testing.T) {
	p := noisyPair(3, 500, 220, 300)
	type search struct {
		variant Variant
		workers int
		sigma   float64
	}
	var searches []search
	for _, v := range []Variant{VariantL, VariantLN, VariantLM, VariantLMN} {
		searches = append(searches, search{v, 1, 0}, search{v, 2, 0})
	}
	searches = append(searches, search{VariantLMN, 1, 5})
	for _, tc := range searches {
		name := fmt.Sprintf("%v/%d-workers/sigma-%g", tc.variant, tc.workers, tc.sigma)
		opts := defaultOpts()
		opts.Variant = tc.variant
		opts.RestartWorkers = tc.workers
		if tc.sigma > 0 {
			opts.Sigma = tc.sigma
		}
		tallied, streamed := obs.NewRegistry(), obs.NewRegistry()
		opts.Observer = tallied
		res, err := Search(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if tc.sigma > 0 && len(res.Windows) > 0 {
			t.Fatalf("%s: %d windows accepted; the case needs none", name, len(res.Windows))
		}
		opts.Observer = obs.Multi(streamed, obs.NewTraceWriter(io.Discard))
		if _, err := Search(p, opts); err != nil {
			t.Fatal(err)
		}
		got, want := tallied.Snapshot(), streamed.Snapshot()
		if !maps.Equal(got.Events, want.Events) {
			t.Errorf("%s: tallied events %v, streamed %v", name, got.Events, want.Events)
		}
		if !maps.Equal(got.Counters, want.Counters) {
			t.Errorf("%s: tallied counters %v, streamed %v", name, got.Counters, want.Counters)
		}
		if len(got.Phases) != len(want.Phases) {
			t.Errorf("%s: %d phases timed, streamed %d", name, len(got.Phases), len(want.Phases))
		}
		for ph, h := range want.Phases {
			if got.Phases[ph].Count != h.Count {
				t.Errorf("%s: phase %s timed %d times, streamed %d", name, ph, got.Phases[ph].Count, h.Count)
			}
		}
		// The totals must cover every kind the search emits.
		if got.Events["ClimbFinished"] != int64(res.Stats.Restarts) || res.Stats.Restarts == 0 {
			t.Errorf("%s: %d ClimbFinished for %d restarts", name, got.Events["ClimbFinished"], res.Stats.Restarts)
		}
		if got.Events["CandidateAccepted"] != int64(len(res.Windows)) {
			t.Errorf("%s: %d CandidateAccepted for %d windows", name, got.Events["CandidateAccepted"], len(res.Windows))
		}
		if tc.variant.noise() && (got.Events["DirectionPruned"] == 0 || got.Events["NoiseBlockSkipped"] == 0) {
			t.Errorf("%s: the noise search pruned %d directions and skipped %d blocks; the check needs both",
				name, got.Events["DirectionPruned"], got.Events["NoiseBlockSkipped"])
		}
	}
}

// TestNoiseCountersUnderNoiseVariants covers Stats.PrunedDirections and
// Stats.NoiseBlocks under both noise variants: real data with long noise
// stretches must trigger both mechanisms, the emitted events must agree with
// the counters one-for-one, and the noise-free variants must report zero.
func TestNoiseCountersUnderNoiseVariants(t *testing.T) {
	p := noisyPair(3, 500, 220, 300)
	for _, v := range []Variant{VariantLN, VariantLMN} {
		sink := newCollectSink()
		opts := defaultOpts()
		opts.Variant = v
		opts.Observer = sink
		res, err := Search(p, opts)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if res.Stats.PrunedDirections == 0 {
			t.Errorf("%v: no pruned directions on data with long noise stretches", v)
		}
		if res.Stats.NoiseBlocks == 0 {
			t.Errorf("%v: no noise blocks skipped on data with long noise stretches", v)
		}
		if got := sink.kindCount("DirectionPruned"); got != res.Stats.PrunedDirections {
			t.Errorf("%v: DirectionPruned events = %d, Stats.PrunedDirections = %d", v, got, res.Stats.PrunedDirections)
		}
		if got := sink.kindCount("NoiseBlockSkipped"); got != res.Stats.NoiseBlocks {
			t.Errorf("%v: NoiseBlockSkipped events = %d, Stats.NoiseBlocks = %d", v, got, res.Stats.NoiseBlocks)
		}
		// Each pruned direction names a valid direction.
		sink.mu.Lock()
		for _, e := range sink.events {
			if dp, ok := e.(obs.DirectionPruned); ok {
				if dp.Direction != "end-forward" && dp.Direction != "start-backward" {
					t.Errorf("%v: bad direction %q", v, dp.Direction)
				}
			}
		}
		sink.mu.Unlock()
		// The search must still find the embedded segment despite pruning.
		if !overlapsSegment(res.Windows, 220, 300) {
			t.Errorf("%v: pruning lost the embedded segment: %v", v, res.Windows)
		}
	}
	for _, v := range []Variant{VariantL, VariantLM} {
		opts := defaultOpts()
		opts.Variant = v
		res, err := Search(p, opts)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if res.Stats.PrunedDirections != 0 || res.Stats.NoiseBlocks != 0 {
			t.Errorf("%v: noise-free variant recorded pruning (%d directions, %d blocks)",
				v, res.Stats.PrunedDirections, res.Stats.NoiseBlocks)
		}
	}
}

// TestSweepEmitsPairEvents checks the multisearch wiring: one PairStarted
// per attempt, exactly one PairFinished per pair, with failures, retries and
// checkpoint restores reflected in the payloads.
func TestSweepEmitsPairEvents(t *testing.T) {
	defer faultinject.Clear()
	faultinject.Set("a/b", faultinject.Fault{Err: errors.New("boom"), Times: 1})

	ss := sweepSeries("a", "b", "c")
	sink := newCollectSink()
	opts := defaultOpts()
	opts.Observer = sink
	results := SearchAllContext(context.Background(), ss, opts, SweepOptions{Retries: 1, Parallelism: 2})
	for _, pr := range results {
		if pr.Err != nil {
			t.Fatalf("pair (%s,%s): %v", pr.XName, pr.YName, pr.Err)
		}
	}
	// 3 pairs, one of which needed a retry → 4 attempts, 3 completions.
	if got := sink.kindCount("PairStarted"); got != 4 {
		t.Errorf("PairStarted events = %d, want 4 (3 pairs + 1 retry)", got)
	}
	if got := sink.kindCount("PairFinished"); got != 3 {
		t.Errorf("PairFinished events = %d, want 3", got)
	}
	sink.mu.Lock()
	for _, e := range sink.events {
		if pf, ok := e.(obs.PairFinished); ok {
			if pf.Total != 3 {
				t.Errorf("PairFinished.Total = %d, want 3", pf.Total)
			}
			wantAttempt := 1
			if pf.Pair == "a/b" {
				wantAttempt = 2
			}
			if pf.Attempt != wantAttempt {
				t.Errorf("pair %s finished with Attempt = %d, want %d", pf.Pair, pf.Attempt, wantAttempt)
			}
			if pf.Duration <= 0 {
				t.Errorf("pair %s reports non-positive duration", pf.Pair)
			}
		}
	}
	sink.mu.Unlock()
}

// TestSweepCheckpointRestoreEmitsPairFinished checks that restored pairs
// skip PairStarted but still announce their resolution.
func TestSweepCheckpointRestoreEmitsPairFinished(t *testing.T) {
	ss := sweepSeries("a", "b")
	ck := &memCheckpoint{}
	opts := defaultOpts()

	// First sweep populates the checkpoint.
	SearchAllContext(context.Background(), ss, opts, SweepOptions{Checkpoint: ck})

	sink := newCollectSink()
	opts.Observer = sink
	res := SearchAllContext(context.Background(), ss, opts, SweepOptions{Checkpoint: ck})
	if !res[0].FromCheckpoint {
		t.Fatal("pair not restored")
	}
	if got := sink.kindCount("PairStarted"); got != 0 {
		t.Errorf("restored pair emitted %d PairStarted events", got)
	}
	if got := sink.kindCount("PairFinished"); got != 1 {
		t.Fatalf("PairFinished events = %d, want 1", got)
	}
	pf := sink.events[0].(obs.PairFinished)
	if !pf.FromCheckpoint || pf.Attempt != 0 {
		t.Errorf("restored PairFinished = %+v", pf)
	}
}

// countdownCtx is a context whose Done channel closes on its n-th call and
// whose Err then reports context.DeadlineExceeded: a deadline that expires
// at a fixed stop check of a search at one restart worker, instead of racing
// the machine's speed. It is for one goroutine.
type countdownCtx struct {
	context.Context
	left int
	done chan struct{}
}

func newCountdownCtx(n int) *countdownCtx {
	return &countdownCtx{Context: context.Background(), left: n, done: make(chan struct{})}
}

func (c *countdownCtx) Done() <-chan struct{} {
	if c.left--; c.left == 0 {
		close(c.done)
	}
	return c.done
}

func (c *countdownCtx) Err() error {
	select {
	case <-c.done:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

// TestContextDeadlineStopsMidSearch pins that a context deadline expiring
// while the search runs cuts it short at the next climb-iteration boundary
// with StopDeadline, not only a deadline that expired before the start, and
// that the cut falls at the same point every time.
func TestContextDeadlineStopsMidSearch(t *testing.T) {
	p := testPair(5, 4000, 500, 900, 0)
	opts := defaultOpts()
	opts.SMax = 200
	opts.Variant = VariantL
	opts.RestartWorkers = 1
	full, err := SearchContext(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	var evals [2]int
	for i := range evals {
		res, err := SearchContext(newCountdownCtx(50), p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Partial || res.Stats.StopReason != StopDeadline {
			t.Fatalf("Partial=%v StopReason=%q, want partial deadline stop", res.Partial, res.Stats.StopReason)
		}
		evals[i] = res.Stats.WindowsEvaluated
	}
	if evals[0] <= 0 || evals[0] >= full.Stats.WindowsEvaluated {
		t.Errorf("cut search evaluated %d windows, want between 0 and the uncut search's %d", evals[0], full.Stats.WindowsEvaluated)
	}
	if evals[0] != evals[1] {
		t.Errorf("two cut searches evaluated %d and %d windows", evals[0], evals[1])
	}
}

// BenchmarkSearchObserver prices observability on one LMN search: the nil
// sink (the default), the aggregating registry, a JSONL trace to io.Discard,
// and that trace with a span in the context so every event is trace-stamped.
// Each sink is built once per sub-benchmark, so the timed loop holds only
// searches. CI's obs-bench job runs the benchmark five times, so the cases
// interleave, and gates the medians against the nil case's (registry 25%,
// trace_span 60%).
func BenchmarkSearchObserver(b *testing.B) {
	p := testPair(43, 400, 100, 180, 0)
	cases := []struct {
		name string
		sink func() obs.Sink
		span bool
	}{
		{"nil", func() obs.Sink { return nil }, false},
		{"registry", func() obs.Sink { return obs.NewRegistry() }, false},
		{"trace_discard", func() obs.Sink { return obs.NewTraceWriter(io.Discard) }, false},
		{"trace_span", func() obs.Sink { return obs.NewTraceWriter(io.Discard) }, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			opts := defaultOpts()
			opts.Variant = VariantLMN
			opts.Observer = c.sink()
			ctx := context.Background()
			if c.span {
				ctx = obs.ContextWithSpan(ctx, obs.NewTrace(1, 1))
			}
			for i := 0; i < b.N; i++ {
				if _, err := SearchContext(ctx, p, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
