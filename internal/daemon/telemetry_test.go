package daemon

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tycos/internal/obs"
)

func getBody(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp, string(b)
}

// TestMetricsEndpoint is the /metrics acceptance check: after real traffic
// the scrape is a valid Prometheus text exposition and carries the request
// latency and queue wait histograms.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	x, y := testSeries(160, 2)
	ingest(t, ts.URL, "x", x)
	ingest(t, ts.URL, "y", y)
	resp := postJSON(t, ts.URL+"/v1/search", searchBody())
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status = %d", resp.StatusCode)
	}

	mresp, body := getBody(t, ts.URL+"/metrics")
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", mresp.StatusCode)
	}
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want text exposition 0.0.4", ct)
	}
	samples, err := obs.CheckExposition(strings.NewReader(body))
	if err != nil {
		t.Fatalf("scrape is not a valid exposition: %v\n%s", err, body)
	}
	if samples == 0 {
		t.Fatal("scrape has no samples")
	}

	for _, want := range []string{
		"# TYPE tycos_http_request_duration_seconds histogram",
		`tycos_http_request_duration_seconds_count{route="/v1/search"} 1`,
		"# TYPE tycos_queue_wait_seconds histogram",
		"tycos_queue_wait_seconds_count 1",
		`tycos_http_requests_total{route="/v1/search",code="200"} 1`,
		`tycos_http_requests_total{route="/v1/series",code="200"} 2`,
		`tycos_search_events_total{kind="ClimbFinished"}`,
		"tycos_search_phase_duration_seconds_count",
		"tycos_daemon_search_requests_total 1",
		"tycos_runtime_goroutines",
		"tycos_queue_depth",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestMetricsEndpointBeforeTraffic: a scrape on a fresh server is already
// valid, and the latency series for every route exist (count 0) so dashboards
// see the full route set immediately.
func TestMetricsEndpointBeforeTraffic(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, body := getBody(t, ts.URL+"/metrics")
	if _, err := obs.CheckExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("fresh scrape invalid: %v\n%s", err, body)
	}
	for _, route := range daemonRoutes {
		want := `tycos_http_request_duration_seconds_count{route="` + route + `"} 0`
		if !strings.Contains(body, want) {
			t.Errorf("fresh scrape missing %q", want)
		}
	}
}

// traceEvent is one parsed line of a TraceWriter JSONL stream.
type traceEvent struct {
	Event  string          `json:"event"`
	Trace  string          `json:"trace"`
	Span   string          `json:"span"`
	Parent string          `json:"parent"`
	Data   json.RawMessage `json:"data"`
}

func parseTrace(t *testing.T, r io.Reader) []traceEvent {
	t.Helper()
	var out []traceEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var ev traceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		out = append(out, ev)
	}
	return out
}

// syncBuffer makes a bytes.Buffer safe for the daemon's worker goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// TestTracePropagation is the tracing acceptance check: with TraceSample=1
// and a TraceWriter observer, one search produces a JSONL stream where every
// stamped line — from the HTTP handler's span through the core search's
// ClimbFinished events — carries the same trace ID the response header
// announced, with the expected parent/child structure.
func TestTracePropagation(t *testing.T) {
	var buf syncBuffer
	tw := obs.NewTraceWriter(&buf)
	const seed = 42
	_, ts := newTestServer(t, Config{Workers: 1, Seed: seed, TraceSample: 1, Observer: tw})
	x, y := testSeries(160, 2)
	ingest(t, ts.URL, "x", x)
	ingest(t, ts.URL, "y", y)

	resp := postJSON(t, ts.URL+"/v1/search", searchBody())
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status = %d", resp.StatusCode)
	}
	header := resp.Header.Get("X-Tycosd-Trace")
	if header == "" {
		t.Fatal("sampled search missing X-Tycosd-Trace header")
	}
	// The trace root is a pure function of (seed, request sequence): the
	// header must be reproducible from first principles.
	root := obs.NewTrace(seed, 1)
	if want := strconv.FormatUint(root.TraceID, 16); header != want {
		t.Fatalf("X-Tycosd-Trace = %s, want deterministic root %s", header, want)
	}
	if err := tw.Flush(); err != nil {
		t.Fatalf("flush trace: %v", err)
	}

	events := parseTrace(t, bytes.NewReader(buf.Bytes()))
	if len(events) == 0 {
		t.Fatal("no trace lines written")
	}
	spanOf := func(sc obs.SpanContext) string { return strconv.FormatUint(sc.SpanID, 16) }
	searchSpan := root.Child("search:x/y")
	kinds := map[string]int{}
	finished := map[string]traceEvent{} // SpanFinished by name
	for _, ev := range events {
		if ev.Trace != header {
			t.Fatalf("event %s carries trace %q, want %q (every line of the request shares one trace)", ev.Event, ev.Trace, header)
		}
		kinds[ev.Event]++
		if ev.Event == "SpanFinished" {
			var d struct {
				Name string `json:"name"`
			}
			if err := json.Unmarshal(ev.Data, &d); err != nil {
				t.Fatalf("bad SpanFinished data: %v", err)
			}
			finished[d.Name] = ev
		}
	}
	if kinds["ClimbFinished"] == 0 {
		t.Errorf("trace has no ClimbFinished events: %v", kinds)
	}
	if kinds["PhaseFinished"] == 0 {
		t.Errorf("trace has no PhaseFinished events: %v", kinds)
	}
	for _, name := range []string{"http.request", "queue.wait", "search"} {
		if _, ok := finished[name]; !ok {
			t.Errorf("trace missing SpanFinished for %s (have %v)", name, finished)
		}
	}
	if ev := finished["http.request"]; ev.Span != spanOf(root) || ev.Parent != "" {
		t.Errorf("http.request span = %s parent = %q, want root %s with no parent", ev.Span, ev.Parent, spanOf(root))
	}
	if ev := finished["queue.wait"]; ev.Parent != spanOf(root) {
		t.Errorf("queue.wait parent = %s, want root span %s", ev.Parent, spanOf(root))
	}
	if ev := finished["search"]; ev.Span != spanOf(searchSpan) || ev.Parent != spanOf(root) {
		t.Errorf("search span = %s/%s, want %s under %s", ev.Span, ev.Parent, spanOf(searchSpan), spanOf(root))
	}
	// Core events are stamped with the search child span.
	for _, ev := range events {
		if ev.Event == "ClimbFinished" && ev.Span != spanOf(searchSpan) {
			t.Errorf("ClimbFinished span = %s, want search span %s", ev.Span, spanOf(searchSpan))
		}
	}
}

// TestTraceSamplingOff: without sampling (and no slow log) nothing is
// stamped and no trace header is offered.
func TestTraceSamplingOff(t *testing.T) {
	var buf syncBuffer
	tw := obs.NewTraceWriter(&buf)
	_, ts := newTestServer(t, Config{Workers: 1, TraceSample: 0, Observer: tw})
	x, y := testSeries(160, 2)
	ingest(t, ts.URL, "x", x)
	ingest(t, ts.URL, "y", y)
	resp := postJSON(t, ts.URL+"/v1/search", searchBody())
	resp.Body.Close()
	if got := resp.Header.Get("X-Tycosd-Trace"); got != "" {
		t.Errorf("unsampled search answered with X-Tycosd-Trace %q", got)
	}
	if err := tw.Flush(); err != nil {
		t.Fatalf("flush trace: %v", err)
	}
	for _, ev := range parseTrace(t, bytes.NewReader(buf.Bytes())) {
		if ev.Trace != "" || ev.Span != "" {
			t.Fatalf("unsampled run produced a stamped line: %+v", ev)
		}
	}
}

// slowLine mirrors telemetry.go's slowEntry for decoding.
type slowLine struct {
	TS          string  `json:"ts"`
	Trace       string  `json:"trace"`
	Pair        string  `json:"pair"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	ThresholdMS float64 `json:"threshold_ms"`
	StopReason  string  `json:"stop_reason"`
	Dropped     int     `json:"dropped"`
	Spans       []struct {
		Span   string          `json:"span"`
		Parent string          `json:"parent"`
		Event  string          `json:"event"`
		Data   json.RawMessage `json:"data"`
	} `json:"spans"`
}

// TestSlowLog: with a threshold every request beats, one search writes one
// JSONL line carrying the full span tree — even though sampling is off.
func TestSlowLog(t *testing.T) {
	var slow syncBuffer
	_, ts := newTestServer(t, Config{
		Workers: 1, Seed: 7,
		SlowLogThreshold: time.Nanosecond,
		SlowLog:          &slow,
	})
	x, y := testSeries(160, 2)
	ingest(t, ts.URL, "x", x)
	ingest(t, ts.URL, "y", y)
	resp := postJSON(t, ts.URL+"/v1/search", searchBody())
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status = %d", resp.StatusCode)
	}
	// Slow-log stamping does not imply trace sampling.
	if got := resp.Header.Get("X-Tycosd-Trace"); got != "" {
		t.Errorf("slow-logged search answered with X-Tycosd-Trace %q despite sampling off", got)
	}

	lines := bytes.Split(bytes.TrimSpace(slow.Bytes()), []byte("\n"))
	if len(lines) != 1 {
		t.Fatalf("slow log holds %d lines, want 1", len(lines))
	}
	var entry slowLine
	if err := json.Unmarshal(lines[0], &entry); err != nil {
		t.Fatalf("bad slow log line: %v\n%s", err, lines[0])
	}
	if entry.Pair != "x/y" {
		t.Errorf("pair = %q, want x/y", entry.Pair)
	}
	root := obs.NewTrace(7, 1)
	if want := strconv.FormatUint(root.TraceID, 16); entry.Trace != want {
		t.Errorf("trace = %q, want %q", entry.Trace, want)
	}
	if entry.ElapsedMS <= 0 || entry.ThresholdMS <= 0 {
		t.Errorf("elapsed/threshold = %v/%v, want both positive", entry.ElapsedMS, entry.ThresholdMS)
	}
	if entry.StopReason != "completed" {
		t.Errorf("stop_reason = %q, want completed", entry.StopReason)
	}
	if len(entry.Spans) == 0 {
		t.Fatal("slow log line has no spans")
	}
	have := map[string]bool{}
	for _, sp := range entry.Spans {
		have[sp.Event] = true
		if sp.Event == "ClimbFinished" && sp.Span == "" {
			t.Error("ClimbFinished span missing from slow log")
		}
	}
	for _, kind := range []string{"ClimbFinished", "PhaseFinished", "SpanFinished"} {
		if !have[kind] {
			t.Errorf("slow log spans missing %s (have %v)", kind, have)
		}
	}
}

// TestSlowLogQuietWhenFast: an unreachable threshold writes nothing.
func TestSlowLogQuietWhenFast(t *testing.T) {
	var slow syncBuffer
	_, ts := newTestServer(t, Config{
		Workers: 1, SlowLogThreshold: time.Hour, SlowLog: &slow,
	})
	x, y := testSeries(160, 2)
	ingest(t, ts.URL, "x", x)
	ingest(t, ts.URL, "y", y)
	resp := postJSON(t, ts.URL+"/v1/search", searchBody())
	resp.Body.Close()
	if got := slow.Bytes(); len(got) != 0 {
		t.Fatalf("fast search wrote a slow log line: %s", got)
	}
}

// TestStatuszGauges: the runtime sampler pre-warms its gauges at startup, so
// a fresh /statusz already shows process levels.
func TestStatuszGauges(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := getBody(t, ts.URL+"/statusz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/statusz status = %d", resp.StatusCode)
	}
	var st statusResponse
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("decode statusz: %v", err)
	}
	if st.Gauges["runtime.goroutines"] <= 0 {
		t.Errorf("runtime.goroutines gauge = %d, want > 0", st.Gauges["runtime.goroutines"])
	}
	if _, ok := st.Gauges["runtime.heap_bytes"]; !ok {
		t.Error("runtime.heap_bytes gauge missing")
	}
	if _, ok := st.Gauges["queue_depth"]; !ok {
		t.Error("queue_depth gauge missing")
	}
	if st.Gauges["draining"] != 0 {
		t.Errorf("draining gauge = %d, want 0", st.Gauges["draining"])
	}
}

// TestStatuszCostFlatUnderTraffic: one /statusz call costs about the same
// after 60 000 phase observations as after 10, because what it reads is a
// fixed-size histogram per phase, not a log of every sample.
func TestStatuszCostFlatUnderTraffic(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, SampleInterval: -1})
	// statuszBytes returns the heap bytes one /statusz call allocates,
	// averaged over a few calls.
	statuszBytes := func() uint64 {
		const calls = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statusz", nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("/statusz status = %d", rec.Code)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / calls
	}
	observe := func(n int) {
		for i := 0; i < n; i++ {
			s.sink.PhaseEnd(obs.PhaseClimb, time.Duration(i%1000)*time.Microsecond)
		}
	}
	observe(10)
	small := statuszBytes()
	observe(60000 - 10)
	if large := statuszBytes(); large > 2*small {
		t.Fatalf("/statusz allocates %d B after 60000 phase observations, %d B after 10; want within 2x", large, small)
	}
}

// TestSamplerTicks: a fast sampler interval refreshes gauges continuously
// and Drain stops the ticker cleanly.
func TestSamplerTicks(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, SampleInterval: time.Millisecond})
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.registry.Snapshot().Gauges["runtime.goroutines"] > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Drain(t.Context()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// After Drain the sampler goroutine is gone; its done channel is closed.
	select {
	case <-s.samplerDone:
	default:
		t.Fatal("sampler still running after Drain")
	}
}
