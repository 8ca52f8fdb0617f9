// Package core implements the TYCOS search itself: the problem statement of
// Section 4, the Brute Force reference search (Lemmas 1–2), the LAHC-based
// search TYCOS_L (Algorithm 1), the noise theory of Section 6 (TYCOS_LN,
// Algorithm 2), and the incremental-MI variants TYCOS_LM and TYCOS_LMN that
// reuse k-NN state across neighbouring windows (Section 7).
package core

import (
	"fmt"
	"time"

	"tycos/internal/mi"
	"tycos/internal/obs"
	"tycos/internal/window"
)

// Variant selects which TYCOS optimisations are active, matching the four
// versions compared in the paper's efficiency evaluation (Section 8.4).
type Variant int

const (
	// VariantL is plain LAHC search with from-scratch MI per window.
	VariantL Variant = iota
	// VariantLN adds the noise theory (initial pruning + direction pruning).
	VariantLN
	// VariantLM adds the incremental MI computation.
	VariantLM
	// VariantLMN applies both optimisations (the flagship configuration).
	VariantLMN
)

// String returns the paper's name for the variant.
func (v Variant) String() string {
	switch v {
	case VariantL:
		return "TYCOS_L"
	case VariantLN:
		return "TYCOS_LN"
	case VariantLM:
		return "TYCOS_LM"
	case VariantLMN:
		return "TYCOS_LMN"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// noise reports whether the variant applies the Section 6 noise theory.
func (v Variant) noise() bool { return v == VariantLN || v == VariantLMN }

// incremental reports whether the variant uses the Section 7 incremental MI.
func (v Variant) incremental() bool { return v == VariantLM || v == VariantLMN }

// Options configures a TYCOS search. The five paper parameters (σ, ε, s_min,
// s_max, td_max — Section 8.2) plus the search hyper-parameters.
type Options struct {
	// SMin and SMax bound the window size (samples).
	SMin, SMax int
	// TDMax bounds the absolute time delay (samples).
	TDMax int
	// Sigma is the correlation threshold σ on the normalized score.
	Sigma float64
	// Epsilon is the noise threshold ε (0 ≤ ε < σ). Zero selects the
	// paper's recommended ε = σ/4.
	Epsilon float64
	// K is the KSG neighbour count (0 → mi.DefaultK).
	K int
	// Delta is the base δ moving step of the neighbourhood (0 → 1).
	Delta int
	// MaxIdle is T_maxIdle, the number of consecutive non-improving
	// neighbourhood explorations tolerated before stopping (0 → 5). Each
	// idle round also widens the explored neighbourhood (N₁, N₂, …).
	MaxIdle int
	// HistoryLength is the LAHC history size L_h (0 → lahc default).
	HistoryLength int
	// MinImprovement is the score gain required to count an exploration as
	// progress for the idle counter (0 → 0.005). Without it, estimator
	// fluctuation across the huge number of visited windows produces a
	// trickle of microscopic "improvements" that keeps climbs alive far
	// past any real structure.
	MinImprovement float64
	// Normalization selects the score scaling (default NormMaxEntropy; see
	// mi.Normalization).
	Normalization mi.Normalization
	// TopK, when positive, replaces the fixed σ with the adaptive top-K
	// threshold of Section 6.3.2.
	TopK int
	// Variant selects the optimisation set (default VariantLMN).
	Variant Variant
	// Jitter, when positive, adds deterministic uniform noise of amplitude
	// Jitter·std(series) to each series before searching. KSG degrades on
	// heavily tied data (e.g. small-integer event counts): tied coordinates
	// collapse the kth-neighbour distances and the marginal counts explode.
	// Dithering at a scale far below the data's resolution breaks the ties
	// without adding measurable information; 0.01 is a good value for count
	// data. 0 disables (default).
	Jitter float64
	// MaxEvaluations, when positive, bounds the number of scored windows: the
	// search stops deterministically at the first restart or climb-iteration
	// boundary at or past the budget, returning the windows accepted so far
	// with Partial set and StopReason = StopBudget. 0 disables the budget.
	// Wall-clock budgets are context deadlines (SearchContext), which stop
	// the search with StopReason = StopDeadline.
	MaxEvaluations int
	// SignificanceLevel, when positive, subtracts a calibrated null level
	// (mean + SignificanceLevel·std of the KSG estimate on shuffled data of
	// the same window size) from every raw MI before normalization. This
	// suppresses the spurious small-window maxima a search over thousands
	// of candidates otherwise surfaces. 0 disables the correction (the
	// paper-faithful behaviour); 2–3 is a reasonable level when enabled.
	SignificanceLevel float64
	// Seed drives all randomness; equal seeds give identical searches.
	Seed int64
	// RestartWorkers bounds the concurrency of the restart/climb loop inside
	// this one search: the scan positions are decomposed into fixed restart
	// segments fanned over this many workers, each owning its own scorer and
	// estimator caches (≤0 → GOMAXPROCS). Results are schedule-independent:
	// RestartWorkers: 1 and RestartWorkers: N return byte-identical windows,
	// stats and event streams for the same seed. A positive MaxEvaluations
	// forces sequential execution regardless of this value — a deterministic
	// budget stop is only well-defined when evaluations accrue in one order.
	RestartWorkers int
	// EstimatorCache, when non-nil, pools warm incremental estimators across
	// searches: each search's scorers draw their first rebuilds from the
	// cache and return their estimators when the search ends. Sharing a
	// cache across the per-candidate searches of a fleet workload (see
	// internal/discovery) removes the per-search multiset, point-state and
	// neighbour-list allocations. Purely a performance hint — cached estimators are
	// reconfigured to bit-identical-to-fresh state before use, so results,
	// events and counters are unchanged. Only the incremental variants
	// (TYCOS_LM/LMN) consult it.
	EstimatorCache *EstimatorCache
	// Observer, when non-nil, receives the search's typed events
	// (restarts, climbs, accepted candidates, noise prunes), phase timings
	// and end-of-search counter totals — see internal/obs for the event
	// schema and the provided sinks. The default nil observer costs one nil
	// check on the hot path; a SearchAll sweep shares the observer across
	// its workers, so implementations must be safe for concurrent use.
	// Observability never alters the search: results and Stats are
	// identical with and without an observer.
	Observer obs.Sink

	// onCandidate, when set (package tests only), observes each completed
	// climb's local optimum in acceptance order. The prefix-consistency
	// tests use it to verify that an interrupted search's candidates are
	// exactly a prefix of the uninterrupted run's.
	onCandidate func(window.Scored)
	// bypassMemo, when set (package tests only), sends every lookup to the
	// scorer, so tests can check that the score memo changes no result.
	bypassMemo bool
	// bypassPlanes, when set (package tests only), estimates every batch
	// window from scratch, so tests can check that τ-planes change no
	// result.
	bypassPlanes bool
}

// withDefaults returns a copy of o with zero fields replaced by defaults.
func (o Options) withDefaults() Options {
	if o.K <= 0 {
		o.K = mi.DefaultK
	}
	if o.Delta <= 0 {
		o.Delta = 1
	}
	if o.MaxIdle <= 0 {
		o.MaxIdle = 5
	}
	if o.Epsilon <= 0 {
		o.Epsilon = o.Sigma / 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MinImprovement <= 0 {
		o.MinImprovement = 0.005
	}
	return o
}

// constraints builds the feasibility constraints for a series of length n.
func (o Options) constraints(n int) window.Constraints {
	return window.Constraints{N: n, SMin: o.SMin, SMax: o.SMax, TDMax: o.TDMax}
}

// Validate reports an error when the options, with the defaults Search
// applies, are inconsistent for a pair of length n. It is the one options
// check: SearchContext and BruteForceContext run it before any work, and a
// server runs it to reject a request before queueing the search.
func (o Options) Validate(n int) error {
	o = o.withDefaults()
	if err := o.constraints(n).Validate(); err != nil {
		return err
	}
	if o.Sigma < 0 {
		return fmt.Errorf("core: σ = %v must be non-negative", o.Sigma)
	}
	if o.Epsilon >= o.Sigma && o.Sigma > 0 {
		return fmt.Errorf("core: ε = %v must be below σ = %v", o.Epsilon, o.Sigma)
	}
	if o.SMin <= o.K {
		return fmt.Errorf("core: s_min = %d must exceed KSG k = %d", o.SMin, o.K)
	}
	return nil
}

// StopReason records why a search stopped.
type StopReason string

const (
	// StopCompleted marks a search that covered the whole pair.
	StopCompleted StopReason = "completed"
	// StopCancelled marks a search cut short by context cancellation.
	StopCancelled StopReason = "cancelled"
	// StopDeadline marks a search cut short by a context or pair deadline
	// expiring.
	StopDeadline StopReason = "deadline"
	// StopBudget marks a search cut short by Options.MaxEvaluations.
	StopBudget StopReason = "budget"
)

// Stats counts the work a search performed; the efficiency evaluation
// reports these alongside wall-clock time.
type Stats struct {
	// WindowsEvaluated counts scored windows (including revisits, whether
	// the score memo or an estimator answered them).
	WindowsEvaluated int
	// MIBatch counts from-scratch MI estimates: every batch estimate (all
	// of TYCOS_L/LN's, and TYCOS_LM/LMN's small windows) plus every
	// rebuild of an incremental estimator.
	MIBatch int
	// MIIncremental counts windows reached by moving a cached incremental
	// estimator (TYCOS_LM/LMN).
	MIIncremental int
	// Restarts counts LAHC restarts on unscanned remainders.
	Restarts int
	// PrunedDirections counts exploration directions cut by noise theory.
	PrunedDirections int
	// NoiseBlocks counts s_min blocks discarded by initial noise pruning.
	NoiseBlocks int
	// StopReason records why the search stopped (StopCompleted when it
	// covered the whole pair).
	StopReason StopReason
	// Timing is the wall-clock breakdown of the search. Unlike the counters
	// above it is not deterministic across runs; comparisons that assert
	// bit-exact Stats repeatability must zero it first.
	Timing Timing
}

// Deterministic returns a copy of the stats with the wall-clock Timing
// zeroed, leaving only the fields that are a pure function of (input,
// Options). Anything that persists or replays results byte-for-byte — the
// daemon's journal, the chaos harness's golden comparisons — stores this
// form, so a resumed run can be compared against an uninterrupted one.
func (s Stats) Deterministic() Stats {
	s.Timing = Timing{}
	return s
}

// Timing is the wall-clock phase breakdown of one search, mirroring the
// obs.Phase* timers: validation (input checks + jitter), null-model
// calibration (zero when significance correction is off), the restart/climb
// loop, and finalisation (thresholding, top-K, overlap resolution).
type Timing struct {
	// Validate, NullModel, Climb and Finalize are the per-phase durations.
	Validate  time.Duration
	NullModel time.Duration
	Climb     time.Duration
	Finalize  time.Duration
	// Total is the end-to-end duration of the search call.
	Total time.Duration
	// EvalsPerSec is WindowsEvaluated divided by Total — the search's
	// throughput in scored windows per second.
	EvalsPerSec float64
}

// Result is the outcome of a search: the accepted windows (scored with the
// configured normalization) and the work statistics.
type Result struct {
	Windows []window.Scored
	Stats   Stats
	// Partial marks a result cut short by cancellation, a deadline or an
	// evaluation budget. The windows are still valid accepted correlations:
	// they are exactly what an uninterrupted run would have produced over
	// the region scanned before the stop (Stats.StopReason says why). Only
	// climbs that finished contribute; an in-flight climb is discarded so
	// partial results stay prefix-consistent and deterministic.
	Partial bool
}
