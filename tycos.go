// Package tycos is the public API of the TYCOS reproduction: efficient
// search for multi-scale time-delay correlations in big time series data
// (Ho, Pedersen, Ho, Vu — EDBT 2020).
//
// Given a pair of equally sampled time series (X, Y), Search finds the set
// of non-overlapping time-delay windows w = ([t_s, t_e], τ) — X observed on
// [t_s, t_e], Y on [t_s+τ, t_e+τ] — whose mutual information exceeds a
// threshold σ, subject to window-size bounds [SMin, SMax] and a delay bound
// |τ| ≤ TDMax. Mutual information is estimated with the
// Kraskov–Stögbauer–Grassberger k-nearest-neighbour estimator, so linear,
// non-linear, non-monotonic and non-functional dependencies are all
// detected.
//
// The search is Late-Acceptance Hill Climbing over the (start, end, delay)
// space, optionally accelerated by a mixture-distribution noise theory that
// prunes unpromising regions (VariantLN) and by an incremental MI
// computation that reuses k-NN state between neighbouring windows
// (VariantLM); VariantLMN (the default in examples) applies both.
//
// Quick start:
//
//	pair, err := tycos.LoadPairCSV("data.csv", "rain", "collisions")
//	if err != nil { ... }
//	res, err := tycos.Search(pair, tycos.Options{
//		SMin: 12, SMax: 288, TDMax: 24,
//		Sigma:   0.3,
//		Variant: tycos.VariantLMN,
//	})
//	for _, w := range res.Windows {
//		fmt.Printf("%v  Ĩ=%.3f\n", w.Window, w.MI)
//	}
package tycos

import (
	"context"

	"io"

	"tycos/internal/checkpoint"
	"tycos/internal/core"
	"tycos/internal/discovery"
	"tycos/internal/mi"
	"tycos/internal/obs"
	"tycos/internal/series"
	"tycos/internal/window"
)

// Series is a uniformly sampled time series.
type Series = series.Series

// Pair couples two equal-length series observed over the same period.
type Pair = series.Pair

// Window is a time-delay window ([Start, End], Delay).
type Window = window.Window

// ScoredWindow pairs a window with its (normalized) mutual information.
type ScoredWindow = window.Scored

// Options configures a search; see the field documentation in internal/core.
type Options = core.Options

// Result is a search outcome: accepted windows plus work statistics.
type Result = core.Result

// Stats counts the work a search performed.
type Stats = core.Stats

// Variant selects the optimisation set of the search.
type Variant = core.Variant

// The four search variants of the paper's efficiency evaluation.
const (
	// VariantL is plain LAHC search (Algorithm 1).
	VariantL = core.VariantL
	// VariantLN adds the Section 6 noise theory (Algorithm 2).
	VariantLN = core.VariantLN
	// VariantLM adds the Section 7 incremental MI computation.
	VariantLM = core.VariantLM
	// VariantLMN applies both optimisations — the recommended default.
	VariantLMN = core.VariantLMN
)

// Normalization selects how raw MI is scaled into the score Search
// thresholds against.
type Normalization = mi.Normalization

// The available normalizations (Section 6.3.1).
const (
	// NormNone thresholds raw MI in nats.
	NormNone = mi.NormNone
	// NormMaxEntropy divides by log(window size); scores lie in [0, 1].
	NormMaxEntropy = mi.NormMaxEntropy
	// NormJointHistogram divides by the plug-in joint entropy of the window.
	NormJointHistogram = mi.NormJointHistogram
)

// NewSeries returns a Series with the given name and values at unit step.
func NewSeries(name string, values []float64) Series { return series.New(name, values) }

// NewPair validates that x and y have equal length and couples them.
func NewPair(x, y Series) (Pair, error) { return series.NewPair(x, y) }

// LoadPairCSV reads the two named columns of a headered CSV file as a pair,
// interpolating missing values.
func LoadPairCSV(path, xName, yName string) (Pair, error) {
	return series.LoadPairCSV(path, xName, yName)
}

// LoadAllCSV reads every column of a headered CSV file as a series,
// interpolating missing values — the input shape SearchAllContext sweeps.
func LoadAllCSV(path string) ([]Series, error) {
	cols, err := series.LoadCSV(path)
	if err != nil {
		return nil, err
	}
	for i := range cols {
		cols[i].Values = series.FillMissing(cols[i].Values)
	}
	return cols, nil
}

// Search runs TYCOS over the pair and returns the accepted non-overlapping
// time-delay windows sorted by start index. The restart/climb loop runs on
// Options.RestartWorkers concurrent workers (≤0 selects GOMAXPROCS);
// results are byte-identical for every worker count and the same seed.
func Search(p Pair, opts Options) (Result, error) { return core.Search(p, opts) }

// SearchContext is Search with cooperative cancellation: cancelling ctx (or
// exhausting Options.MaxEvaluations / Options.Deadline) stops the search at
// the next climb-iteration or restart boundary and returns the windows
// accepted so far with Result.Partial set and Stats.StopReason recording the
// cause — not an error. Partial results are prefix-consistent: they match
// what the uninterrupted run would have produced over the scanned region.
func SearchContext(ctx context.Context, p Pair, opts Options) (Result, error) {
	return core.SearchContext(ctx, p, opts)
}

// StopReason says why a search stopped (Stats.StopReason).
type StopReason = core.StopReason

// The stop reasons a search can report.
const (
	// StopCompleted marks a search that covered the whole pair.
	StopCompleted = core.StopCompleted
	// StopCancelled marks a search cut short by context cancellation.
	StopCancelled = core.StopCancelled
	// StopDeadline marks a search cut short by a deadline or pair timeout.
	StopDeadline = core.StopDeadline
	// StopBudget marks a search cut short by Options.MaxEvaluations.
	StopBudget = core.StopBudget
)

// BruteForce enumerates and scores every feasible window — exact but
// exponentially slower; use it only on small inputs or for validation.
func BruteForce(p Pair, opts Options) (Result, error) { return core.BruteForce(p, opts) }

// BruteForceContext is BruteForce with the same cooperative cancellation
// contract as SearchContext: cancellation, Options.MaxEvaluations and
// Options.Deadline stop the enumeration between windows, returning the
// windows accepted so far with Result.Partial set and Stats.StopReason
// recording the cause — not an error.
func BruteForceContext(ctx context.Context, p Pair, opts Options) (Result, error) {
	return core.BruteForceContext(ctx, p, opts)
}

// SearchSpaceSize reports the number of feasible windows for the options
// over a series of length n (Lemma 1 of the paper).
func SearchSpaceSize(n int, opts Options) int64 { return core.SearchSpaceSize(n, opts) }

// EstimateMI returns the KSG mutual-information estimate (nats) between the
// paired samples with neighbour count k (k ≤ 0 selects the default, 4).
func EstimateMI(x, y []float64, k int) (float64, error) {
	return mi.NewKSG(k, mi.BackendKDTree).Estimate(x, y)
}

// NormalizedMI scales a raw MI value for the paired samples according to the
// chosen normalization.
func NormalizedMI(raw float64, x, y []float64, n Normalization) float64 {
	return mi.Normalize(raw, x, y, n)
}

// PairResult is the outcome of one pair inside SearchAll.
type PairResult = core.PairResult

// SearchAll runs TYCOS over every pair of distinct series concurrently —
// the paper's cross-domain workflow over a whole collection of sensors.
// parallelism ≤ 0 uses GOMAXPROCS; when Options.RestartWorkers is also ≤ 0
// the cores are divided between pair-level and in-pair restart workers.
// Results are deterministic for a fixed seed regardless of scheduling and
// are ordered by input position.
func SearchAll(ss []Series, opts Options, parallelism int) []PairResult {
	return core.SearchAll(ss, opts, parallelism)
}

// SweepOptions configures the robustness envelope of a SearchAllContext
// sweep: worker count, per-pair retries and timeouts, and checkpointing.
type SweepOptions = core.SweepOptions

// SearchAllContext is SearchAll with cancellation and fault isolation: a
// panicking pair becomes its PairResult.Err (with stack) instead of killing
// the sweep, failed pairs are retried up to SweepOptions.Retries extra
// times, and a Checkpoint makes an interrupted sweep resumable — journaled
// pairs are restored instead of recomputed.
func SearchAllContext(ctx context.Context, ss []Series, opts Options, sw SweepOptions) []PairResult {
	return core.SearchAllContext(ctx, ss, opts, sw)
}

// Observability
//
// A search reports its inner workings — restarts, climbs, accepted windows,
// noise-theory pruning, per-phase wall-clock — through an Observer plugged
// into Options.Observer. The default (nil) costs one pointer check per
// emission site; sinks never alter search results. A sweep shares one
// Observer across all workers, so custom implementations must be safe for
// concurrent use (all sinks in this package are).

// Observer receives search events, counters and phase timings; plug one into
// Options.Observer. Implementations must not block: they run on the search
// hot path.
type Observer = obs.Sink

// Timing is the wall-clock breakdown a search records in Stats.Timing. It is
// not deterministic; zero it before bit-exact Stats comparisons.
type Timing = core.Timing

// Phase names one timed stage of a search.
type Phase = obs.Phase

// The four timed search phases.
const (
	// PhaseValidate covers option and input validation.
	PhaseValidate = obs.PhaseValidate
	// PhaseNullModel covers significance-null calibration (when enabled).
	PhaseNullModel = obs.PhaseNullModel
	// PhaseClimb covers the restart/climb loop — the bulk of a search.
	PhaseClimb = obs.PhaseClimb
	// PhaseFinalize covers overlap resolution and final scoring.
	PhaseFinalize = obs.PhaseFinalize
)

// Event is the interface every observable search event implements; type-
// switch an Observer.Event argument on the concrete event types below.
type Event = obs.Event

// The observable search events; type-switch on Observer.Event's argument.
type (
	// RestartStarted marks the beginning of one LAHC restart.
	RestartStarted = obs.RestartStarted
	// ClimbFinished reports a completed climb: its count equals
	// Stats.Restarts.
	ClimbFinished = obs.ClimbFinished
	// CandidateAccepted reports one returned window: its count equals
	// len(Result.Windows).
	CandidateAccepted = obs.CandidateAccepted
	// DirectionPruned reports a Section 6.2.2 direction pruning.
	DirectionPruned = obs.DirectionPruned
	// NoiseBlockSkipped reports a Section 6.2.1 initial-block rejection.
	NoiseBlockSkipped = obs.NoiseBlockSkipped
	// PairStarted marks one search attempt of a sweep pair.
	PairStarted = obs.PairStarted
	// PairFinished marks a sweep pair's resolution (searched, restored or
	// failed) — the hook progress reporters key on.
	PairFinished = obs.PairFinished
)

// TraceWriter streams every observation as one JSON line; see internal/obs
// for the schema. Close writes a final counter summary. Safe for concurrent
// use.
type TraceWriter = obs.TraceWriter

// NewTraceWriter returns a TraceWriter emitting JSONL to w. It buffers;
// call Close (or Flush) to drain. It does not close w.
func NewTraceWriter(w io.Writer) *TraceWriter { return obs.NewTraceWriter(w) }

// Metrics aggregates observations in memory: event, counter and gauge
// totals plus a fixed-bucket duration histogram per phase, in memory bounded
// by the number of names rather than by traffic. Snapshot reads it back;
// WritePrometheus renders it for a /metrics scrape. Safe for concurrent use.
type Metrics = obs.Registry

// NewMetrics returns an empty Metrics aggregator.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// MetricsSnapshot is a detached copy of a Metrics aggregator's state.
type MetricsSnapshot = obs.Snapshot

// MultiObserver fans observations out to every non-nil sink; with none it
// returns nil (the no-op default).
func MultiObserver(sinks ...Observer) Observer { return obs.Multi(sinks...) }

// SpanContext identifies one span of a request-scoped trace; see internal/obs
// for the full tracing model. The zero value means "not traced".
type SpanContext = obs.SpanContext

// TracedEvent wraps an event with the span that caused it; Kind delegates to
// the wrapped event, and BaseEvent unwraps before type switches.
type TracedEvent = obs.Traced

// NewTrace derives the deterministic trace root for the seq-th request of a
// process seeded with seed: equal inputs give equal trace IDs.
func NewTrace(seed int64, seq uint64) SpanContext { return obs.NewTrace(seed, seq) }

// ContextWithSpan puts a span into a context; SearchContext reads it and
// stamps every observation of that search with a derived child span.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return obs.ContextWithSpan(ctx, sc)
}

// BaseEvent returns the event under any trace stamping; type-switch on its
// result rather than the raw Observer.Event argument when traces may be on.
func BaseEvent(e Event) Event { return obs.Base(e) }

// Sampler makes deterministic head-sampling decisions on trace IDs: every
// participant of a trace agrees without coordination.
type Sampler = obs.Sampler

// NewSampler returns a sampler accepting approximately ratio of all trace
// IDs (≤0 none, ≥1 all).
func NewSampler(ratio float64) Sampler { return obs.NewSampler(ratio) }

// Checkpoint is a JSONL-backed journal of completed pair results; plug it
// into SweepOptions.Checkpoint to make a multi-pair sweep survive kills and
// restarts. Safe for concurrent use.
type Checkpoint = checkpoint.Journal

// OpenCheckpoint opens (or creates) the sweep journal at path, recovering
// every intact record; a torn final line from a killed process is skipped.
func OpenCheckpoint(path string) (*Checkpoint, error) { return checkpoint.Open(path) }

// Discovery
//
// Discover answers the fleet question — "which of these N series correlate
// with this anchor, and at what delay?" — with a screen-then-confirm
// pipeline: a cheap sliding-Pearson pre-screen over a delay grid prunes
// candidates that show no linear trace of coupling, and only the survivors
// receive a full (budgeted) TYCOS search. Ranked output is deterministic in
// (data, options): byte-identical for every worker count and independent of
// whether candidates were replayed from a journal or searched fresh.

// DiscoveryOptions configures an anchor→fleet discovery; see the field
// documentation in internal/discovery.
type DiscoveryOptions = discovery.Options

// DiscoveryResult is a discovery outcome: the ranked top-K candidates, the
// adaptive score threshold, and pipeline statistics.
type DiscoveryResult = discovery.Result

// DiscoveryCandidate is one ranked hit: the candidate's name, fleet index,
// best-window score, and its full per-pair search result.
type DiscoveryCandidate = discovery.Candidate

// DiscoveryStats counts candidates through the pipeline stages.
type DiscoveryStats = discovery.Stats

// DiscoveryProgress is the live progress snapshot handed to
// DiscoveryOptions.OnProgress.
type DiscoveryProgress = discovery.Progress

// DiscoveryCandidateError attributes a per-candidate failure without
// aborting the fleet.
type DiscoveryCandidateError = discovery.CandidateError

// Discover runs the screen-then-confirm pipeline over the candidate fleet
// and returns the top-K candidates ranked by best-window score (ties broken
// by fleet index). Cancelling ctx stops cleanly with Result.Partial set.
func Discover(ctx context.Context, anchor Series, candidates []Series, opts DiscoveryOptions) (DiscoveryResult, error) {
	return discovery.Discover(ctx, anchor, candidates, opts)
}
