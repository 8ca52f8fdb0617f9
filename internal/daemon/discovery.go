package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	"time"

	"tycos/internal/discovery"
	"tycos/internal/faultinject"
	"tycos/internal/obs"
	"tycos/internal/series"
)

// POST /v1/discover — anchor→fleet top-K discovery over ingested series.
//
// The request names one anchor and (optionally) a candidate list; an absent
// list means every other ingested series, in name order. The task runs on
// the same admission-controlled worker pool as /v1/search — a saturated
// queue answers 429 (discovery has no degraded mode: a pre-screen-only
// answer is exactly what the pipeline's first phase already is). Each
// confirmed survivor is journaled individually under a fingerprint key, so
// a killed discovery resumes by replaying finished candidates.
//
// The response body is a pure function of (ingested data, request): the
// resume-dependent Searched/Replayed split travels in the
// X-Tycosd-Discovery-Searched and X-Tycosd-Discovery-Replayed headers
// instead, which is what lets the kill/resume chaos harness compare body
// bytes directly.

// discoverRequest is the /v1/discover body. The search parameter block
// matches /v1/search (same names, same defaults, same caps); "topk" is the
// ranked-candidate count, "search_topk" the per-search window top-K.
type discoverRequest struct {
	Anchor     string   `json:"anchor"`
	Candidates []string `json:"candidates"`
	TopK       int      `json:"topk"`
	// Screen defaults to true; explicit false disables the pre-screen.
	Screen          *bool   `json:"screen"`
	ScreenThreshold float64 `json:"screen_threshold"`
	ScreenWindow    int     `json:"screen_window"`
	ScreenStride    int     `json:"screen_stride"`
	// Workers bounds the candidate-level fan-out inside this task's worker
	// slot (default 1: the daemon's parallelism is its worker pool).
	Workers int `json:"workers"`

	SMin       int     `json:"smin"`
	SMax       int     `json:"smax"`
	TDMax      int     `json:"tdmax"`
	Sigma      float64 `json:"sigma"`
	Epsilon    float64 `json:"epsilon"`
	K          int     `json:"k"`
	Delta      int     `json:"delta"`
	MaxIdle    int     `json:"maxidle"`
	SearchTopK int     `json:"search_topk"`
	Variant    string  `json:"variant"`
	Seed       int64   `json:"seed"`

	MaxEvaluations int   `json:"max_evaluations"`
	TimeoutMS      int64 `json:"timeout_ms"`
}

// searchRequest translates the shared parameter block so the /v1/search
// defaulting, caps and variant parsing apply verbatim.
func (req *discoverRequest) searchRequest() searchRequest {
	return searchRequest{
		SMin: req.SMin, SMax: req.SMax, TDMax: req.TDMax,
		Sigma: req.Sigma, Epsilon: req.Epsilon, K: req.K,
		Delta: req.Delta, MaxIdle: req.MaxIdle, TopK: req.SearchTopK,
		Variant: req.Variant, Seed: req.Seed,
		MaxEvaluations: req.MaxEvaluations, TimeoutMS: req.TimeoutMS,
	}
}

// rankedCandidate is the wire form of one discovery hit.
type rankedCandidate struct {
	Name    string         `json:"name"`
	Index   int            `json:"index"`
	Score   float64        `json:"score"`
	Windows []scoredWindow `json:"windows"`
}

// discoverResponse is the /v1/discover body. Stats deliberately omits the
// Searched/Replayed split (see the endpoint comment).
type discoverResponse struct {
	Anchor     string                     `json:"anchor"`
	Candidates int                        `json:"candidates"`
	Threshold  float64                    `json:"threshold"`
	Ranked     []rankedCandidate          `json:"ranked"`
	Partial    bool                       `json:"partial"`
	Errors     []discovery.CandidateError `json:"errors,omitempty"`
	Screened   int                        `json:"screened"`
	Pruned     int                        `json:"pruned"`
	Failed     int                        `json:"failed"`
	Unfinished int                        `json:"unfinished"`
	Degenerate int                        `json:"degenerate_windows"`
	Evaluated  int                        `json:"evaluated"`
}

func (s *Server) handleDiscover(w http.ResponseWriter, r *http.Request) {
	var req discoverRequest
	if err := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		httpError(w, http.StatusBadRequest, "discover: %v", err)
		return
	}
	if req.Anchor == "" {
		httpError(w, http.StatusBadRequest, "discover: anchor is required")
		return
	}
	if s.draining.Load() {
		s.retryAfter(w)
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	sr := req.searchRequest()
	sr.applyDefaults(s.cfg)
	sOpts, err := sr.options()
	if err != nil {
		httpError(w, http.StatusBadRequest, "discover: %v", err)
		return
	}
	av, ok := s.store.Get(req.Anchor)
	if !ok {
		httpError(w, http.StatusNotFound, "discover: unknown series %q", req.Anchor)
		return
	}
	// Options are checked against the anchor; a candidate too short for
	// them stays a per-candidate error in the response.
	if err := sOpts.Validate(len(av)); err != nil {
		httpError(w, http.StatusBadRequest, "discover: %v", err)
		return
	}
	anchor := series.New(req.Anchor, av)
	names := req.Candidates
	if len(names) == 0 {
		for _, info := range s.store.Names() {
			if info.Name != req.Anchor {
				names = append(names, info.Name)
			}
		}
	}
	if len(names) == 0 {
		httpError(w, http.StatusUnprocessableEntity, "discover: no candidate series ingested")
		return
	}
	cands := make([]series.Series, 0, len(names))
	for _, name := range names {
		if name == req.Anchor {
			httpError(w, http.StatusBadRequest, "discover: anchor %q listed as its own candidate", name)
			return
		}
		v, ok := s.store.Get(name)
		if !ok {
			httpError(w, http.StatusNotFound, "discover: unknown series %q", name)
			return
		}
		cands = append(cands, series.New(name, v))
	}

	s.sink.Count("daemon.discover_requests", 1)
	s.discoveryRequests.Inc()

	ctx := r.Context()
	if sr.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(sr.TimeoutMS)*time.Millisecond)
		defer cancel()
	}

	// Same deterministic trace-root scheme as /v1/search: sampled requests
	// answer with X-Tycosd-Trace and every replayed search event carries the
	// derived span.
	root := obs.NewTrace(s.cfg.Seed, s.reqSeq.Add(1))
	sampled := s.sampler.Sampled(root.TraceID)
	if sampled {
		ctx = obs.ContextWithSpan(ctx, root)
		w.Header().Set("X-Tycosd-Trace", hexID(root.TraceID))
	}

	dOpts := discovery.Options{
		Search:          sOpts,
		TopK:            req.TopK,
		ScreenThreshold: req.ScreenThreshold,
		ScreenWindow:    req.ScreenWindow,
		ScreenStride:    req.ScreenStride,
		Workers:         req.Workers,
		Observer:        s.sink,
		Screen:          req.Screen == nil || *req.Screen,
	}
	if dOpts.Workers <= 0 {
		dOpts.Workers = 1
	}
	if s.journal != nil {
		dOpts.Journal = s.journal
	}

	t := &task{
		ctx:      ctx,
		pairName: req.Anchor + "/*",
		enqueued: time.Now(),
		sink:     s.sink,
		disc: &discoverJob{
			anchor: anchor,
			cands:  cands,
			opts:   dOpts,
			done:   make(chan discoverOut, 1),
		},
	}
	if sampled {
		t.span = root
	}
	switch s.admit(t) {
	case admitDraining:
		s.retryAfter(w)
		httpError(w, http.StatusServiceUnavailable, "draining")
	case admitSaturated:
		// No degraded mode for discovery: a screen-only ranking would
		// misrepresent the confirm phase. Shed with a retry hint, always.
		s.sink.Count("daemon.shed", 1)
		s.retryAfter(w)
		httpError(w, http.StatusTooManyRequests, "queue full (%d queued, %d in flight)", len(s.queue), s.inflight.Load())
	case admitted:
		out := <-t.disc.done
		if out.err != nil {
			httpError(w, http.StatusInternalServerError, "discover: %v", out.err)
			return
		}
		s.writeDiscoverResponse(w, out.res)
	}
}

// writeDiscoverResponse renders the result; the resume-dependent split goes
// to headers, everything deterministic to the body.
func (s *Server) writeDiscoverResponse(w http.ResponseWriter, res discovery.Result) {
	source := "computed"
	if res.Stats.Searched == 0 && res.Stats.Replayed > 0 {
		source = "journal"
	}
	w.Header().Set("X-Tycosd-Source", source)
	w.Header().Set("X-Tycosd-Discovery-Searched", fmt.Sprint(res.Stats.Searched))
	w.Header().Set("X-Tycosd-Discovery-Replayed", fmt.Sprint(res.Stats.Replayed))
	w.Header().Set("Content-Type", "application/json")
	resp := discoverResponse{
		Anchor:     res.Anchor,
		Candidates: res.Stats.Candidates,
		Threshold:  res.Threshold,
		Ranked:     make([]rankedCandidate, 0, len(res.Ranked)),
		Partial:    res.Partial,
		Errors:     res.Errors,
		Screened:   res.Stats.Screened,
		Pruned:     res.Stats.Pruned,
		Failed:     res.Stats.Failed,
		Unfinished: res.Stats.Unfinished,
		Degenerate: res.Stats.DegenerateWindows,
		Evaluated:  res.Stats.Evaluated,
	}
	for _, c := range res.Ranked {
		resp.Ranked = append(resp.Ranked, rankedCandidate{
			Name: c.Name, Index: c.Index, Score: c.Score,
			Windows: toWire(c.Result.Windows),
		})
	}
	json.NewEncoder(w).Encode(resp)
}

// discoverJob is the discovery payload of an admitted task.
type discoverJob struct {
	anchor series.Series
	cands  []series.Series
	opts   discovery.Options
	done   chan discoverOut
}

// discoverOut is what the worker hands back to the waiting handler.
type discoverOut struct {
	res discovery.Result
	err error
}

// runDiscoverTask executes one admitted discovery on a pool worker: run it
// (panic-isolated), translate journal degradation into readiness, publish
// the tycos_discovery_* metrics and deliver the outcome.
func (s *Server) runDiscoverTask(t *task) {
	start := time.Now()
	res, err := s.discoverOne(t)
	if err == nil {
		s.discoveryDuration.ObserveDuration(time.Since(start))
		s.discoveryCandidates.With("screened").Add(int64(res.Stats.Screened))
		s.discoveryCandidates.With("pruned").Add(int64(res.Stats.Pruned))
		s.discoveryCandidates.With("searched").Add(int64(res.Stats.Searched))
		s.discoveryCandidates.With("replayed").Add(int64(res.Stats.Replayed))
		s.discoveryCandidates.With("failed").Add(int64(res.Stats.Failed))
		if res.Stats.JournalErrors > 0 {
			// Same durability semantics as the search path: the result is
			// valid, its persistence is not — degrade readiness.
			s.journalOK.Store(false)
			s.sink.Count("daemon.journal_degraded", 1)
		}
	} else {
		s.sink.Count("daemon.discover_failed", 1)
	}
	t.disc.done <- discoverOut{res: res, err: err}
}

// discoverOne is the panic isolation boundary around one discovery; the
// faultinject point lets the chaos suite fail or stall it without reaching
// into the engine.
func (s *Server) discoverOne(t *task) (res discovery.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("daemon: discover %s panicked: %v\n%s", t.pairName, r, debug.Stack())
		}
	}()
	if err := faultinject.Fire("daemon/discover"); err != nil {
		return discovery.Result{}, err
	}
	return discovery.Discover(t.ctx, t.disc.anchor, t.disc.cands, t.disc.opts)
}
