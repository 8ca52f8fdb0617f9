package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"tycos/internal/baseline"
	"tycos/internal/checkpoint"
	"tycos/internal/core"
	"tycos/internal/obs"
	"tycos/internal/series"
	"tycos/internal/window"
)

// routes wires the daemon's endpoint set:
//
//	GET  /healthz    — liveness: 200 while the process runs
//	GET  /readyz     — readiness: 503 while draining or journal-degraded
//	GET  /statusz    — JSON snapshot: queue, series, journal, metrics
//	GET  /metrics    — Prometheus text exposition of the telemetry registry
//	POST /v1/series  — append points to a named series (creates it)
//	POST /v1/search  — delayed-correlation search over two ingested series
//	POST /v1/discover — anchor→fleet top-K discovery (screen then confirm)
//
// Every route passes through instrument (telemetry.go), which feeds the
// per-route latency histogram and the route+code request counter.
func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /readyz", s.instrument("/readyz", s.handleReadyz))
	s.mux.HandleFunc("GET /statusz", s.instrument("/statusz", s.handleStatusz))
	s.mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	s.mux.HandleFunc("POST /v1/series", s.instrument("/v1/series", s.handleIngest))
	s.mux.HandleFunc("POST /v1/search", s.instrument("/v1/search", s.handleSearch))
	s.mux.HandleFunc("POST /v1/discover", s.instrument("/v1/discover", s.handleDiscover))
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// retryAfter stamps the Retry-After hint (whole seconds, minimum 1).
func (s *Server) retryAfter(w http.ResponseWriter) {
	secs := int(s.cfg.RetryAfter.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		s.retryAfter(w)
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case !s.journalOK.Load():
		s.retryAfter(w)
		http.Error(w, "journal degraded", http.StatusServiceUnavailable)
	default:
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	}
}

// journalStatus is the /statusz journal block.
type journalStatus struct {
	Path    string `json:"path"`
	Pairs   int    `json:"pairs"`
	Bytes   int64  `json:"bytes"`
	Healthy bool   `json:"healthy"`
}

// statusResponse is the /statusz body.
type statusResponse struct {
	Draining   bool             `json:"draining"`
	Workers    int              `json:"workers"`
	QueueCap   int              `json:"queue_cap"`
	QueueDepth int              `json:"queue_depth"`
	Inflight   int64            `json:"inflight"`
	Series     []seriesInfo     `json:"series"`
	Journal    *journalStatus   `json:"journal,omitempty"`
	Events     map[string]int64 `json:"events"`
	Counters   map[string]int64 `json:"counters"`
	Gauges     map[string]int64 `json:"gauges"`
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	snap := s.registry.Snapshot()
	resp := statusResponse{
		Draining:   s.draining.Load(),
		Workers:    s.cfg.Workers,
		QueueCap:   s.cfg.QueueDepth,
		QueueDepth: len(s.queue),
		Inflight:   s.inflight.Load(),
		Series:     s.store.Names(),
		Events:     snap.Events,
		Counters:   snap.Counters,
		Gauges:     snap.Gauges,
	}
	if s.journal != nil {
		resp.Journal = &journalStatus{
			Path:    s.journal.Path(),
			Pairs:   s.journal.Len(),
			Bytes:   s.journal.SizeBytes(),
			Healthy: s.journalOK.Load(),
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// ingestRequest appends points to a named series.
type ingestRequest struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req ingestRequest
	if err := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		httpError(w, http.StatusBadRequest, "ingest: %v", err)
		return
	}
	if req.Name == "" || len(req.Values) == 0 {
		httpError(w, http.StatusBadRequest, "ingest: name and values are required")
		return
	}
	for i, v := range req.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			httpError(w, http.StatusBadRequest, "ingest: values[%d] is not finite", i)
			return
		}
	}
	if s.draining.Load() {
		s.retryAfter(w)
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	// The retry wraps the transient-failure window of the append path; the
	// faultinject key is the chaos suite's handle on ingest durability.
	if err := s.retry.Do(r.Context(), "daemon/ingest", func() error { return nil }); err != nil {
		s.sink.Count("daemon.ingest_failed", 1)
		s.retryAfter(w)
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	n := s.store.Append(req.Name, req.Values)
	s.sink.Count("daemon.ingest_points", int64(len(req.Values)))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"name": req.Name, "len": n})
}

// searchRequest is the /v1/search body: a pair of ingested series plus the
// paper's search parameters and the per-request budgets. Zero fields take
// the documented defaults; budgets are additionally capped by the server's
// MaxEvalsCap/TimeoutCap.
type searchRequest struct {
	X string `json:"x"`
	Y string `json:"y"`

	SMin    int     `json:"smin"`
	SMax    int     `json:"smax"`
	TDMax   int     `json:"tdmax"`
	Sigma   float64 `json:"sigma"`
	Epsilon float64 `json:"epsilon"`
	K       int     `json:"k"`
	Delta   int     `json:"delta"`
	MaxIdle int     `json:"maxidle"`
	TopK    int     `json:"topk"`
	Variant string  `json:"variant"`
	Seed    int64   `json:"seed"`

	MaxEvaluations int   `json:"max_evaluations"`
	TimeoutMS      int64 `json:"timeout_ms"`
	RestartWorkers int   `json:"restart_workers"`
}

// applyDefaults fills zero fields; it must run before fingerprinting so
// spelled-out and defaulted requests share a journal entry.
func (req *searchRequest) applyDefaults(cfg Config) {
	if req.SMin <= 0 {
		req.SMin = 6
	}
	if req.SMax <= 0 {
		req.SMax = 96
	}
	if req.TDMax <= 0 {
		req.TDMax = 30
	}
	//lint:allow floateq exact zero means the JSON field was absent, not a computed value
	if req.Sigma == 0 {
		req.Sigma = 0.25
	}
	if req.Variant == "" {
		req.Variant = "lmn"
	}
	if req.Seed == 0 {
		req.Seed = cfg.Seed
	}
	if cfg.MaxEvalsCap > 0 && (req.MaxEvaluations <= 0 || req.MaxEvaluations > cfg.MaxEvalsCap) {
		req.MaxEvaluations = cfg.MaxEvalsCap
	}
	capMS := int64(cfg.TimeoutCap / time.Millisecond)
	if capMS > 0 && (req.TimeoutMS <= 0 || req.TimeoutMS > capMS) {
		req.TimeoutMS = capMS
	}
	if req.RestartWorkers <= 0 {
		// One restart worker per search: the daemon's parallelism lives in
		// its worker pool, and results are identical for every value anyway.
		req.RestartWorkers = 1
	}
}

// options translates the request into core.Options.
func (req *searchRequest) options() (core.Options, error) {
	opts := core.Options{
		SMin: req.SMin, SMax: req.SMax, TDMax: req.TDMax,
		Sigma: req.Sigma, Epsilon: req.Epsilon, K: req.K,
		Delta: req.Delta, MaxIdle: req.MaxIdle, TopK: req.TopK,
		Seed:           req.Seed,
		MaxEvaluations: req.MaxEvaluations,
		RestartWorkers: req.RestartWorkers,
	}
	switch strings.ToLower(req.Variant) {
	case "l":
		opts.Variant = core.VariantL
	case "ln":
		opts.Variant = core.VariantLN
	case "lm":
		opts.Variant = core.VariantLM
	case "lmn":
		opts.Variant = core.VariantLMN
	default:
		return opts, fmt.Errorf("unknown variant %q (want l, ln, lm or lmn)", req.Variant)
	}
	return opts, nil
}

// fingerprint hashes everything that determines a search's result — the
// pair, the data version (append-only, so the lengths), and every
// result-affecting option — into the journal key, so a journaled result is
// only ever replayed for a request that would recompute it identically.
// The option fields are serialized by checkpoint.HashOptions, the one
// canonical enumeration shared with the discovery engine, so a new
// result-affecting option cannot be threaded into one journal key and
// forgotten in the other. Wall-clock timeouts are excluded by construction:
// HashOptions skips Deadline, and a timeout either leaves the result
// untouched or makes it partial, and partial results are never journaled.
func (req *searchRequest) fingerprint(n int, opts core.Options) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%s\x00%d\x00", req.X, req.Y, n)
	checkpoint.HashOptions(h, opts)
	return fmt.Sprintf("%016x", h.Sum64())
}

// scoredWindow is the wire form of one accepted window.
type scoredWindow struct {
	Start int     `json:"start"`
	End   int     `json:"end"`
	Delay int     `json:"delay"`
	Score float64 `json:"score"`
}

// searchResponse is the /v1/search body. For non-degraded responses it is a
// pure function of (ingested data, request), so chaos harnesses compare the
// bytes of resumed and uninterrupted runs directly.
type searchResponse struct {
	X          string         `json:"x"`
	Y          string         `json:"y"`
	N          int            `json:"n"` // samples searched (min of the two lengths)
	Windows    []scoredWindow `json:"windows"`
	Stats      core.Stats     `json:"stats"`
	Partial    bool           `json:"partial"`
	StopReason string         `json:"stop_reason"`
	Degraded   bool           `json:"degraded,omitempty"`
}

// toWire converts accepted windows; the empty slice (not null) keeps the
// JSON stable between zero-hit and missing.
func toWire(ws []window.Scored) []scoredWindow {
	out := make([]scoredWindow, 0, len(ws))
	for _, w := range ws {
		out = append(out, scoredWindow{Start: w.Start, End: w.End, Delay: w.Delay, Score: w.MI})
	}
	return out
}

func (s *Server) writeSearchResponse(w http.ResponseWriter, req *searchRequest, n int, res core.Result, source string) {
	w.Header().Set("X-Tycosd-Source", source)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(searchResponse{
		X: req.X, Y: req.Y, N: n,
		Windows:    toWire(res.Windows),
		Stats:      res.Stats.Deterministic(),
		Partial:    res.Partial,
		StopReason: string(res.Stats.StopReason),
	})
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	reqStart := time.Now()
	var req searchRequest
	if err := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		httpError(w, http.StatusBadRequest, "search: %v", err)
		return
	}
	if req.X == "" || req.Y == "" {
		httpError(w, http.StatusBadRequest, "search: x and y are required")
		return
	}
	if s.draining.Load() {
		s.retryAfter(w)
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	req.applyDefaults(s.cfg)
	opts, err := req.options()
	if err != nil {
		httpError(w, http.StatusBadRequest, "search: %v", err)
		return
	}
	xv, ok := s.store.Get(req.X)
	if !ok {
		httpError(w, http.StatusNotFound, "search: unknown series %q", req.X)
		return
	}
	yv, ok := s.store.Get(req.Y)
	if !ok {
		httpError(w, http.StatusNotFound, "search: unknown series %q", req.Y)
		return
	}
	// The two series may have drifted apart in length under live ingest;
	// search their common prefix.
	n := min(len(xv), len(yv))
	pair, err := series.NewPair(series.New(req.X, xv[:n]), series.New(req.Y, yv[:n]))
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "search: %v", err)
		return
	}

	jx, jy := req.X, req.Y+"\x1f"+req.fingerprint(n, opts)
	s.sink.Count("daemon.search_requests", 1)
	if s.journal != nil {
		if res, ok := s.journal.Lookup(jx, jy); ok {
			s.sink.Count("daemon.journal_hits", 1)
			s.writeSearchResponse(w, &req, n, res, "journal")
			return
		}
	}

	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}

	// Per-request telemetry. Every computed search gets a deterministic
	// trace root (a pure function of the server seed and the request
	// sequence number). Stamping is active when the sampler accepts the
	// trace ID or the slow log is on — the root span rides the context into
	// core.SearchContext, which stamps every event with a derived child
	// span. Sampled requests additionally answer with X-Tycosd-Trace so
	// callers can grep their trace out of the event stream.
	root := obs.NewTrace(s.cfg.Seed, s.reqSeq.Add(1))
	sampled := s.sampler.Sampled(root.TraceID)
	reqSink := s.sink
	var recorder *obs.SpanRecorder
	if s.slowLogEnabled() {
		recorder = obs.NewSpanRecorder(0)
		reqSink = obs.Multi(s.sink, recorder)
	}
	stamping := sampled || recorder != nil
	if stamping {
		ctx = obs.ContextWithSpan(ctx, root)
	}
	if sampled {
		w.Header().Set("X-Tycosd-Trace", hexID(root.TraceID))
	}
	opts.Observer = reqSink

	t := &task{
		ctx: ctx, pair: pair, opts: opts,
		jkeyX: jx, jkeyY: jy,
		done:     make(chan taskResult, 1),
		pairName: req.X + "/" + req.Y,
		enqueued: time.Now(),
		sink:     reqSink,
	}
	if stamping {
		t.span = root
	}
	switch s.admit(t) {
	case admitDraining:
		s.retryAfter(w)
		httpError(w, http.StatusServiceUnavailable, "draining")
	case admitSaturated:
		s.sink.Count("daemon.shed", 1)
		if s.cfg.Shed == ShedDegrade {
			s.degradedSearch(w, &req, xv[:n], yv[:n])
			return
		}
		s.retryAfter(w)
		httpError(w, http.StatusTooManyRequests, "queue full (%d queued, %d in flight)", len(s.queue), s.inflight.Load())
	case admitted:
		// Block until the worker answers: cancellation (client gone,
		// timeout) propagates through t.ctx into the search itself, which
		// then returns promptly with a partial result.
		out := <-t.done
		if out.err != nil {
			httpError(w, http.StatusInternalServerError, "search: %v", out.err)
			return
		}
		elapsed := time.Since(reqStart)
		if stamping {
			// The request span closes here, after the search and before the
			// response — the last stamped event of the trace.
			obs.WithSpan(reqSink, root).Event(obs.SpanFinished{Name: "http.request", DurationNS: int64(elapsed)})
		}
		if recorder != nil && elapsed >= s.cfg.SlowLogThreshold {
			// The slow line is written before the response so a caller that
			// saw a slow answer can always find its trace in the log.
			s.writeSlowLog(t.pairName, root, elapsed, out.res, recorder)
		}
		s.writeSearchResponse(w, &req, n, out.res, "computed")
	}
}

// degradedSearch answers a saturated-queue request with the sliding-PCC
// pre-screen: delay-0 linear correlation over smin-sized windows. It is a
// pre-screen, not a KSG result — scores are |r|, delays are always 0 and
// non-linear correlation is invisible — which is exactly the trade the
// ShedDegrade policy buys capacity with.
func (s *Server) degradedSearch(w http.ResponseWriter, req *searchRequest, xv, yv []float64) {
	wins, err := baseline.SlidingPCC(xv, yv, req.SMin, req.Sigma)
	if err != nil {
		s.retryAfter(w)
		httpError(w, http.StatusTooManyRequests, "queue full and degraded pre-screen unavailable: %v", err)
		return
	}
	s.sink.Count("daemon.degraded", 1)
	w.Header().Set("X-Tycosd-Source", "degraded")
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(searchResponse{
		X: req.X, Y: req.Y, N: len(xv),
		Windows:    toWire(wins),
		Partial:    true,
		StopReason: "degraded-pcc",
		Degraded:   true,
	})
}

// decodeJSON decodes a size-bounded JSON body, rejecting unknown fields so
// a typo'd option fails loudly instead of silently defaulting.
func decodeJSON(w http.ResponseWriter, r *http.Request, maxBytes int64, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}
