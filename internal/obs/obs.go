// Package obs is the observability layer of the TYCOS search stack: typed
// search events, named counters and phase timers flow from the search into a
// Sink chosen by the caller (core.Options.Observer). The package is
// deliberately dependency-free — stdlib only, enforced by CI — so every
// other layer of the system can emit into it without import cycles.
//
// The hot-path contract is that observability must cost nothing when off:
// the search holds a nil Sink by default and guards every emission with a
// single nil check, so the instrumented binary runs within noise of the
// uninstrumented one (see BenchmarkSearchObserver in internal/core and the
// recorded numbers in DESIGN.md).
//
// Concrete sinks: TraceWriter (JSONL event trace) and Registry (the one
// in-memory aggregator: event, counter and gauge totals plus a fixed-bucket
// duration histogram per phase, read back with Snapshot or rendered for a
// Prometheus /metrics scrape, in memory bounded by the number of names
// rather than by traffic) — composable with Multi. All sinks are safe for
// concurrent use, which a multi-pair sweep's workers require.
package obs

import "time"

// Phase names one timed stage of a search. Every search emits PhaseEnd once
// per phase it ran (the null-model phase only runs when significance
// correction is configured).
type Phase string

const (
	// PhaseValidate covers option validation, input finiteness checks and
	// jitter preprocessing.
	PhaseValidate Phase = "validate"
	// PhaseNullModel covers the significance null-model calibration.
	PhaseNullModel Phase = "nullmodel"
	// PhaseClimb covers the restart/climb loop — the bulk of a search.
	PhaseClimb Phase = "climb"
	// PhaseFinalize covers thresholding, top-K selection and overlap
	// resolution of the accepted candidates.
	PhaseFinalize Phase = "finalize"
)

// Window mirrors the search's time-delay window ([Start, End], Delay)
// without importing it, keeping this package dependency-free.
type Window struct {
	Start int `json:"start"`
	End   int `json:"end"`
	Delay int `json:"delay"`
}

// Event is one typed observation from the search. The concrete types below
// are the full set; sinks type-switch on them.
type Event interface {
	// Kind returns the event's type name as it appears in traces
	// ("RestartStarted", "ClimbFinished", …).
	Kind() string
}

// RestartStarted marks the beginning of one LAHC restart: the searcher is
// about to construct an initial window at ScanFrom and climb from it.
type RestartStarted struct {
	Pair     string `json:"pair,omitempty"`
	Restart  int    `json:"restart"`
	ScanFrom int    `json:"scan_from"`
}

// Kind implements Event.
func (RestartStarted) Kind() string { return "RestartStarted" }

// ClimbFinished marks one completed climb: its local optimum, the climb's
// iteration count and the windows it evaluated (initial-window construction
// included). Interrupted climbs emit nothing — exactly one ClimbFinished is
// emitted per Stats.Restarts.
type ClimbFinished struct {
	Pair        string  `json:"pair,omitempty"`
	Restart     int     `json:"restart"`
	Window      Window  `json:"window"`
	Score       float64 `json:"score"`
	Iterations  int     `json:"iterations"`
	Evaluations int     `json:"evaluations"`
}

// Kind implements Event.
func (ClimbFinished) Kind() string { return "ClimbFinished" }

// CandidateAccepted marks a window accepted into the final result set —
// after thresholding, top-K selection and overlap resolution. Exactly one is
// emitted per returned window.
type CandidateAccepted struct {
	Pair   string  `json:"pair,omitempty"`
	Window Window  `json:"window"`
	Score  float64 `json:"score"`
}

// Kind implements Event.
func (CandidateAccepted) Kind() string { return "CandidateAccepted" }

// DirectionPruned marks one exploration direction cut by the noise theory
// (Section 6.2.2): the partition beyond the window in that direction tested
// as noise. Direction is "end-forward" or "start-backward".
type DirectionPruned struct {
	Pair      string `json:"pair,omitempty"`
	Window    Window `json:"window"`
	Direction string `json:"direction"`
}

// Kind implements Event.
func (DirectionPruned) Kind() string { return "DirectionPruned" }

// NoiseBlockSkipped marks an s_min block identified as noise during the
// initial hierarchical construction (Section 6.2.1); the accumulation it
// poisoned is discarded with it.
type NoiseBlockSkipped struct {
	Pair  string `json:"pair,omitempty"`
	Block Window `json:"block"`
}

// Kind implements Event.
func (NoiseBlockSkipped) Kind() string { return "NoiseBlockSkipped" }

// PairStarted marks one search attempt beginning inside a multi-pair sweep.
// Retried pairs emit one PairStarted per attempt.
type PairStarted struct {
	Pair    string `json:"pair"`
	Attempt int    `json:"attempt"`
	Index   int    `json:"index"`
	Total   int    `json:"total"`
}

// Kind implements Event.
func (PairStarted) Kind() string { return "PairStarted" }

// PairFinished marks one pair's resolution inside a multi-pair sweep:
// searched (possibly after retries), restored from a checkpoint, or failed.
// Attempt is the attempt count consumed (0 for checkpoint restores).
type PairFinished struct {
	Pair           string        `json:"pair"`
	Attempt        int           `json:"attempt"`
	Index          int           `json:"index"`
	Total          int           `json:"total"`
	Windows        int           `json:"windows"`
	Partial        bool          `json:"partial,omitempty"`
	FromCheckpoint bool          `json:"from_checkpoint,omitempty"`
	Err            string        `json:"err,omitempty"`
	Duration       time.Duration `json:"duration_ns"`
}

// Kind implements Event.
func (PairFinished) Kind() string { return "PairFinished" }

// Sink receives the search's observations. Implementations must be safe for
// concurrent use: a sweep shares one Sink across all of its workers. Sinks
// must not block — the search calls them inline.
//
// The search only ever touches a Sink behind a nil check, so a nil Sink is
// the (free) no-op default.
type Sink interface {
	// Event delivers one typed search event.
	Event(e Event)
	// Count adds delta to the named monotonic counter. The search emits its
	// counter totals once at the end of each search, not per increment, so
	// Count is never on the hot path.
	Count(name string, delta int64)
	// PhaseEnd records that one run of phase p took d.
	PhaseEnd(p Phase, d time.Duration)
}
