package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	tycos "tycos"
	"tycos/internal/daemon"
	"tycos/internal/obs"
	"tycos/internal/synth"
)

// daemonSpec sizes the daemon workload: pairs preloaded CorrelatedAR pairs
// of n points searched over HTTP, requests arriving at rate per second.
// Planted delays stay within 0..delay, where the short searches find them on
// every seed (see pairSpec). At 36 requests/s the latency percentiles'
// interquartile range over ten seeds was 30–40% of their median, at 24 it
// was 10–20%.
type daemonSpec struct {
	pairs, n, segs, segLen, delay int
	rate                          float64
	ingestN                       int
	smax                          int
}

func daemonSpecFor(smoke bool) daemonSpec {
	s := daemonSpec{pairs: 16, n: 400, segs: 2, segLen: 60, delay: 2, rate: 24, ingestN: 400, smax: 40}
	if smoke {
		s.n, s.segLen, s.rate, s.ingestN, s.smax = 80, 12, 200, 50, 16
	}
	return s
}

// searchBody is the /v1/search request the workload sends.
type searchBody struct {
	X              string  `json:"x"`
	Y              string  `json:"y"`
	SMin           int     `json:"smin"`
	SMax           int     `json:"smax"`
	TDMax          int     `json:"tdmax"`
	Sigma          float64 `json:"sigma"`
	Variant        string  `json:"variant"`
	Seed           int64   `json:"seed"`
	RestartWorkers int     `json:"restart_workers"`
}

func (s daemonSpec) body(pair int, seed int64) searchBody {
	return searchBody{
		X: fmt.Sprintf("x%d", pair), Y: fmt.Sprintf("y%d", pair),
		SMin: 8, SMax: s.smax, TDMax: 8, Sigma: 0.3, Variant: "lmn", Seed: seed, RestartWorkers: 1,
	}
}

// options is the library equivalent of body, for the traced run's probes.
func (s daemonSpec) options() tycos.Options {
	return tycos.Options{SMin: 8, SMax: s.smax, TDMax: 8, Sigma: 0.3, Variant: tycos.VariantLMN, RestartWorkers: 1, Seed: 1}
}

// Request kinds, in the order of the traffic mix.
const (
	reqSearch = iota
	reqIngest
	reqMetrics
	reqStatusz
)

// request is one entry of the seeded arrival schedule.
type request struct {
	at   time.Duration // due time from the start of the schedule
	kind int
	pair int
	seed int64
	name string
}

// searchKey identifies a search's answer: its pair and its seed.
type searchKey struct {
	pair int
	seed int64
}

// schedule draws the open-loop arrivals: a Poisson process conditioned on its
// request count, so the schedule spans exactly count/rate. Of every 20
// requests 16 search, 3 ingest and 1 scrapes /metrics or /statusz in turn.
// A fifth of searches repeat the key of a search due at least lookback
// earlier (the set-up's warm-up searches, seed 1 on every pair, are always
// eligible); the rest search a fresh seed.
func schedule(cfg runConfig, sp daemonSpec) []request {
	rng := rand.New(rand.NewSource(inputSeed(cfg.seed, streamDaemon, 0)))
	count := max(int(sp.rate*cfg.measure.Seconds()), cfg.minOps()*5/4)
	span := time.Duration(float64(count) / sp.rate * float64(time.Second))
	lookback := min(time.Second, span/4)
	gaps := make([]float64, count)
	var total float64
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}
	reqs := make([]request, count)
	issued := make([]request, sp.pairs)
	for p := range issued {
		issued[p] = request{kind: reqSearch, pair: p, seed: 1, at: -time.Hour}
	}
	var at float64
	nextSeed := int64(2)
	scrapes, eligible := 0, 0
	for i := range reqs {
		at += gaps[i] / total
		r := request{at: time.Duration(at * float64(span))}
		switch m := i % 20; {
		case m < 16:
			r.kind = reqSearch
			for eligible < len(issued) && issued[eligible].at <= r.at-lookback {
				eligible++
			}
			if rng.Float64() < 0.2 && eligible > 0 {
				prev := issued[rng.Intn(eligible)]
				r.pair, r.seed = prev.pair, prev.seed
			} else {
				r.pair, r.seed = rng.Intn(sp.pairs), nextSeed
				nextSeed++
				issued = append(issued, r)
			}
		case m < 19:
			r.kind, r.name, r.seed = reqIngest, fmt.Sprintf("ingest%d", i), inputSeed(cfg.seed, streamDaemon, i+1)
		default:
			r.kind = reqMetrics + scrapes%2
			scrapes++
		}
		reqs[i] = r
	}
	return reqs
}

// serverTree is the daemon's own span tree for one traced search, read from
// its slow-search log: request and queue-wait durations and the phases.
type serverTree struct {
	request, queue time.Duration
	phases         []phaseEnd
}

// slowLog is the io.Writer the traced daemon writes its slow-search log to;
// it keeps each line's span tree by trace id until the client collects it.
type slowLog struct {
	mu    sync.Mutex
	trees map[string]serverTree
}

// Write implements io.Writer for one slow-log line.
func (l *slowLog) Write(p []byte) (int, error) {
	var line struct {
		Trace string `json:"trace"`
		Spans []struct {
			Event string `json:"event"`
			Data  struct {
				Name       string `json:"name"`
				Phase      string `json:"phase"`
				DurationNS int64  `json:"duration_ns"`
			} `json:"data"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(p, &line); err != nil {
		return 0, err
	}
	var t serverTree
	for _, s := range line.Spans {
		d := time.Duration(s.Data.DurationNS)
		switch {
		case s.Event == "SpanFinished" && s.Data.Name == "http.request":
			t.request = d
		case s.Event == "SpanFinished" && s.Data.Name == "queue.wait":
			t.queue = d
		case s.Event == "PhaseFinished":
			t.phases = append(t.phases, phaseEnd{phase: obs.Phase(s.Data.Phase), d: d})
		}
	}
	l.mu.Lock()
	l.trees[line.Trace] = t
	l.mu.Unlock()
	return len(p), nil
}

// take removes and returns the tree of one trace.
func (l *slowLog) take(trace string) (serverTree, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	t, ok := l.trees[trace]
	delete(l.trees, trace)
	return t, ok
}

// daemonEnv is one in-process tycosd behind a loopback HTTP server.
type daemonEnv struct {
	sp      daemonSpec
	dir     string
	journal string
	srv     *daemon.Server
	ts      *httptest.Server
	client  *http.Client
	slow    *slowLog
	probe   *coreProbe
	pairs   []synth.Composite
	// refs holds the first computed answer per key.
	mu   sync.Mutex
	refs map[searchKey]string
}

// startDaemon builds the server (journal in a fresh scratch directory, fsync
// off), preloads the pairs and runs a warm-up search of each.
func startDaemon(cfg runConfig, sp daemonSpec) (*daemonEnv, error) {
	e := &daemonEnv{sp: sp, refs: make(map[searchKey]string)}
	for p := 0; p < sp.pairs; p++ {
		c, err := synth.CorrelatedAR(sp.n, sp.segs, sp.segLen, sp.delay, inputSeed(cfg.seed, streamDaemon, -1-p))
		if err != nil {
			return nil, err
		}
		e.pairs = append(e.pairs, c)
	}
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.tmp, "daemon-")
	if err != nil {
		return nil, err
	}
	e.dir, e.journal = dir, filepath.Join(dir, "journal.jsonl")
	dcfg := daemon.Config{Workers: 2, JournalPath: e.journal}
	if cfg.tr != nil {
		e.slow = &slowLog{trees: make(map[string]serverTree)}
		e.probe = newCoreProbe()
		dcfg.TraceSample, dcfg.SlowLogThreshold, dcfg.SlowLog = 1, time.Nanosecond, e.slow
		dcfg.Observer = e.probe
	}
	if e.srv, err = daemon.New(dcfg); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e.ts = httptest.NewServer(e.srv.Handler())
	e.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
		Timeout:   time.Minute,
	}
	for p, c := range e.pairs {
		for _, s := range []tycos.Series{c.Pair.X, c.Pair.Y} {
			name := fmt.Sprintf("%s%d", s.Name, p)
			if err := e.ingest(name, s.Values); err != nil {
				e.close()
				return nil, err
			}
		}
	}
	for p := range e.pairs {
		res, err := e.search(p, 1)
		if err == nil && res.source != "computed" {
			err = fmt.Errorf("answered from %q", res.source)
		}
		if err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up search: %w", err)
		}
		e.refs[searchKey{p, 1}] = res.windows
	}
	return e, nil
}

// close stops the server, drains the daemon and removes its journal.
func (e *daemonEnv) close() error {
	e.ts.Close()
	e.client.CloseIdleConnections()
	err := e.srv.Close()
	if rerr := os.RemoveAll(e.dir); err == nil {
		err = rerr
	}
	return err
}

// post sends a JSON body and returns the response.
func (e *daemonEnv) post(path string, body any) (*http.Response, []byte, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, nil, err
	}
	resp, err := e.client.Post(e.ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp, data, err
}

// get fetches a path.
func (e *daemonEnv) get(path string) (*http.Response, []byte, error) {
	resp, err := e.client.Get(e.ts.URL + path)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp, data, err
}

// ingest appends a new series and checks the acknowledged length.
func (e *daemonEnv) ingest(name string, values []float64) error {
	resp, data, err := e.post("/v1/series", map[string]any{"name": name, "values": values})
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("ingest %s: status %d: %s", name, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var ack struct {
		Len int `json:"len"`
	}
	if err := json.Unmarshal(data, &ack); err != nil {
		return fmt.Errorf("ingest %s: %w", name, err)
	}
	if ack.Len != len(values) {
		return fmt.Errorf("ingest %s: stored %d points, sent %d", name, ack.Len, len(values))
	}
	return nil
}

// searchResult is the part of a search response the workload checks.
type searchResult struct {
	status  int
	source  string
	trace   string
	windows string
	recall  float64
}

// search sends one search of a preloaded pair and decodes its answer.
func (e *daemonEnv) search(pair int, seed int64) (searchResult, error) {
	b := e.sp.body(pair, seed)
	resp, data, err := e.post("/v1/search", b)
	if err != nil {
		return searchResult{}, err
	}
	r := searchResult{status: resp.StatusCode, source: resp.Header.Get("X-Tycosd-Source"), trace: resp.Header.Get("X-Tycosd-Trace")}
	if r.status != http.StatusOK {
		return r, fmt.Errorf("search %s/%s seed %d: status %d: %s", b.X, b.Y, b.Seed, r.status, strings.TrimSpace(string(data)))
	}
	var body struct {
		Windows []struct {
			Start int     `json:"start"`
			End   int     `json:"end"`
			Delay int     `json:"delay"`
			Score float64 `json:"score"`
		} `json:"windows"`
		Partial    bool   `json:"partial"`
		StopReason string `json:"stop_reason"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		return r, err
	}
	if body.Partial || body.StopReason != string(tycos.StopCompleted) {
		return r, fmt.Errorf("search %s/%s seed %d stopped early: %s", b.X, b.Y, b.Seed, body.StopReason)
	}
	ws := make([]tycos.ScoredWindow, len(body.Windows))
	for i, w := range body.Windows {
		ws[i] = tycos.ScoredWindow{Window: tycos.Window{Start: w.Start, End: w.End, Delay: w.Delay}, MI: w.Score}
	}
	r.windows = windowsKey(ws)
	r.recall = plantedRecall(e.pairs[pair].Segments, ws)
	return r, nil
}

// histSumCount reads the _sum and _count of the histogram series with the
// given name and label block from a Prometheus exposition.
func histSumCount(exposition []byte, name, labels string) (sum, count float64) {
	for _, line := range strings.Split(string(exposition), "\n") {
		key, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch key {
		case name + "_sum" + labels:
			sum = v
		case name + "_count" + labels:
			count = v
		}
	}
	return sum, count
}

// daemonSamples collects what the load generator observed.
type daemonSamples struct {
	mu                            sync.Mutex
	search, journal, computed     []float64 // ms from due
	ingest, metrics, statusz, lag []float64 // ms
	clientOverhead                []float64 // ms, traced computed searches
	recalls                       []float64
	ok, shed                      int
	firstDue, lastDone            time.Time
}

// runDaemon is the open-loop service workload.
func runDaemon(cfg runConfig) (*outcome, error) {
	sp := daemonSpecFor(cfg.smoke)
	o := newOutcome()
	var env *daemonEnv
	for r := 0; r < cfg.reps(); r++ {
		if env != nil {
			if err := env.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if env, err = startDaemon(cfg, sp); err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(t0))
	}
	o.probePair, o.probeOpts = env.pairs[0].Pair, sp.options()
	sched := schedule(cfg, sp)

	var heap0 runtime.MemStats
	var before []byte
	if cfg.tr != nil {
		runtime.GC()
		runtime.ReadMemStats(&heap0)
		var err error
		if _, before, err = env.get("/metrics"); err != nil {
			return nil, err
		}
	}

	var s daemonSamples
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var wg sync.WaitGroup
	start := time.Now()
	s.firstDue = start.Add(sched[0].at)
	for _, r := range sched {
		due := start.Add(r.at)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					s.mu.Lock()
					o.fail("request at %v panicked: %v", r.at, p)
					s.mu.Unlock()
				}
			}()
			env.issue(cfg, r, due, &s, o)
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&m1)

	o.attempted += len(sched)
	o.lat = s.search
	o.work = float64(s.ok)
	o.busy = s.lastDone.Sub(s.firstDue)
	o.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	o.recall = mean(s.recalls)
	checkRecall(o)
	keys := make([]string, 0, len(env.refs))
	for k, w := range env.refs {
		keys = append(keys, fmt.Sprintf("%d/%d=%s", k.pair, k.seed, w))
	}
	sort.Strings(keys)
	d := newDigest()
	for _, k := range keys {
		d.add(k)
	}
	o.digest = d.String()

	if cfg.tr != nil {
		if err := daemonLayers(env, &s, before, heap0, o); err != nil {
			env.close()
			return nil, err
		}
	}
	return o, env.close()
}

// issue sends one scheduled request and records its outcome.
func (e *daemonEnv) issue(cfg runConfig, r request, due time.Time, s *daemonSamples, o *outcome) {
	sent := time.Now()
	var err error
	var res searchResult
	switch r.kind {
	case reqSearch:
		res, err = e.search(r.pair, r.seed)
	case reqIngest:
		rng := rand.New(rand.NewSource(r.seed))
		err = e.ingest(r.name, ar1(rng, e.sp.ingestN))
	case reqMetrics:
		var resp *http.Response
		var data []byte
		if resp, data, err = e.get("/metrics"); err == nil {
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("/metrics: status %d", resp.StatusCode)
			} else if _, cerr := obs.CheckExposition(bytes.NewReader(data)); cerr != nil {
				err = fmt.Errorf("/metrics: %w", cerr)
			}
		}
	case reqStatusz:
		var resp *http.Response
		var data []byte
		if resp, data, err = e.get("/statusz"); err == nil {
			var v map[string]any
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("/statusz: status %d", resp.StatusCode)
			} else if jerr := json.Unmarshal(data, &v); jerr != nil {
				err = fmt.Errorf("/statusz: %w", jerr)
			}
		}
	}
	done := time.Now()
	if err == nil && r.kind == reqSearch {
		err = e.checkAnswer(r, res)
	}

	var tree serverTree
	traced := false
	if e.slow != nil && res.source == "computed" {
		tree, traced = e.slow.take(res.trace)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if done.After(s.lastDone) {
		s.lastDone = done
	}
	s.lag = append(s.lag, ms(sent.Sub(due)))
	fromDue := ms(done.Sub(due))
	switch r.kind {
	case reqSearch:
		s.search = append(s.search, fromDue)
		if res.status == http.StatusTooManyRequests {
			s.shed++
		}
		switch res.source {
		case "journal":
			s.journal = append(s.journal, fromDue)
		case "computed":
			s.computed = append(s.computed, fromDue)
			if err == nil {
				s.recalls = append(s.recalls, res.recall)
			}
		}
	case reqIngest:
		s.ingest = append(s.ingest, ms(done.Sub(sent)))
	case reqMetrics:
		s.metrics = append(s.metrics, ms(done.Sub(sent)))
	case reqStatusz:
		s.statusz = append(s.statusz, ms(done.Sub(sent)))
	}
	if err != nil {
		o.fail("%v", err)
		return
	}
	s.ok++
	if cfg.tr == nil {
		return
	}
	root := cfg.tr.add(0, "request", due, done)
	cfg.tr.add(root, "gen.lag", due, sent)
	if traced {
		s.clientOverhead = append(s.clientOverhead, ms(done.Sub(sent)-tree.request))
		srvStart := done.Add(-tree.request)
		srv := cfg.tr.add(root, "http.request", srvStart, done)
		at := srvStart.Add(tree.queue)
		cfg.tr.add(srv, "queue.wait", srvStart, at)
		for _, pe := range tree.phases {
			cfg.tr.add(srv, "phase."+string(pe.phase), at, at.Add(pe.d))
			at = at.Add(pe.d)
		}
	}
}

// checkAnswer validates a search answer: the first computed answer for a key
// becomes its reference; every later answer, computed or replayed from the
// journal, must equal it.
func (e *daemonEnv) checkAnswer(r request, res searchResult) error {
	k := searchKey{r.pair, r.seed}
	e.mu.Lock()
	ref, seen := e.refs[k]
	if !seen && res.source == "computed" {
		e.refs[k] = res.windows
	}
	e.mu.Unlock()
	switch {
	case res.source != "computed" && res.source != "journal":
		return fmt.Errorf("search %d/%d: unexpected source %q", r.pair, r.seed, res.source)
	case !seen && res.source == "journal":
		return fmt.Errorf("search %d/%d: replayed before any computed answer", r.pair, r.seed)
	case seen && res.windows != ref:
		return fmt.Errorf("search %d/%d: %s answer differs from the first computed one", r.pair, r.seed, res.source)
	}
	return nil
}

// daemonLayers derives the traced run's daemon, checkpoint and core metrics.
func daemonLayers(env *daemonEnv, s *daemonSamples, before []byte, heap0 runtime.MemStats, o *outcome) error {
	_, after, err := env.get("/metrics")
	if err != nil {
		return err
	}
	delta := func(name, labels string) float64 {
		s0, c0 := histSumCount(before, name, labels)
		s1, c1 := histSumCount(after, name, labels)
		return 1000 * ratio(s1-s0, c1-c0)
	}
	var heap1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&heap1)
	st, err := os.Stat(env.journal)
	if err != nil {
		return err
	}
	q := max(len(s.statusz)/4, 1)
	growth := 0.0
	if len(s.statusz) >= 2 {
		growth = ratio(mean(s.statusz[len(s.statusz)-q:]), mean(s.statusz[:q]))
	}
	l := o.layer
	l["daemon.search_journal_ms.p50"] = rank(s.journal, 50)
	l["daemon.journal_hit_ratio"] = ratio(float64(len(s.journal)), float64(len(s.search)))
	l["daemon.search_computed_ms.p50"] = rank(s.computed, 50)
	l["daemon.search_computed_ms.p90"] = rank(s.computed, 90)
	l["daemon.queue_wait_ms.mean"] = delta("tycos_queue_wait_seconds", "")
	l["daemon.server_search_ms.mean"] = delta("tycos_http_request_duration_seconds", `{route="/v1/search"}`)
	l["daemon.client_overhead_ms"] = mean(s.clientOverhead)
	l["daemon.ingest_ms.p50"] = rank(s.ingest, 50)
	l["daemon.ingest_ms.p90"] = rank(s.ingest, 90)
	l["daemon.scrape_metrics_ms.p50"] = rank(s.metrics, 50)
	l["daemon.scrape_statusz_ms.p50"] = rank(s.statusz, 50)
	l["daemon.statusz_growth"] = growth
	l["daemon.heap_growth_mb"] = (float64(heap1.HeapInuse) - float64(heap0.HeapInuse)) / (1 << 20)
	l["daemon.shed_429"] = float64(s.shed)
	l["checkpoint.journal_bytes"] = float64(st.Size())
	l["gen.lag_p90_ms"] = rank(s.lag, 90)
	return env.probe.layerValues(l)
}
