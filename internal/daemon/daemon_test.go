package daemon

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"tycos/internal/checkpoint"
	"tycos/internal/faultinject"
)

// testSeries builds a pair with a planted delayed linear correlation, long
// enough for the default smin but short enough to search fast.
func testSeries(n, delay int) (x, y []float64) {
	x = make([]float64, n)
	y = make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i)/7) + 0.1*math.Cos(float64(i)/3)
	}
	for i := range y {
		j := i - delay
		if j < 0 {
			j = 0
		}
		y[i] = x[j]
	}
	return x, y
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func ingest(t *testing.T, base, name string, values []float64) {
	t.Helper()
	resp := postJSON(t, base+"/v1/series", ingestRequest{Name: name, Values: values})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest %s: status %d", name, resp.StatusCode)
	}
}

// searchBody is the standard fast request used across the tests.
func searchBody() map[string]any {
	return map[string]any{
		"x": "x", "y": "y",
		"smin": 8, "smax": 16, "tdmax": 4, "sigma": 0.2,
	}
}

func decodeSearch(t *testing.T, resp *http.Response) searchResponse {
	t.Helper()
	defer resp.Body.Close()
	var out searchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode search response: %v", err)
	}
	return out
}

func TestIngestAndSearch(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	x, y := testSeries(160, 2)
	ingest(t, ts.URL, "x", x)
	ingest(t, ts.URL, "y", y)

	resp := postJSON(t, ts.URL+"/v1/search", searchBody())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Tycosd-Source"); got != "computed" {
		t.Errorf("X-Tycosd-Source = %q, want computed", got)
	}
	out := decodeSearch(t, resp)
	if out.Partial {
		t.Errorf("unhurried search reported partial (stop reason %s)", out.StopReason)
	}
	if out.StopReason != "completed" {
		t.Errorf("stop_reason = %q, want completed", out.StopReason)
	}
	if len(out.Windows) == 0 {
		t.Errorf("planted correlation found no windows")
	}
	if out.N != 160 {
		t.Errorf("n = %d, want 160", out.N)
	}
	if out.Stats.Timing.Total != 0 {
		t.Errorf("response stats carry wall-clock timing %v; must be deterministic", out.Stats.Timing.Total)
	}
}

func TestIngestRejectsBadInput(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		body any
	}{
		{"missing name", map[string]any{"values": []float64{1, 2}}},
		{"missing values", map[string]any{"name": "x"}},
		{"nan value", map[string]any{"name": "x", "values": []any{1.0, "NaN"}}},
		{"unknown field", map[string]any{"name": "x", "values": []float64{1}, "bogus": 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/v1/series", tc.body)
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status = %d, want 400", resp.StatusCode)
			}
		})
	}
}

func TestSearchValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	x, _ := testSeries(64, 0)
	ingest(t, ts.URL, "x", x)

	cases := []struct {
		name string
		body map[string]any
		want int
	}{
		{"unknown series", map[string]any{"x": "x", "y": "nope"}, http.StatusNotFound},
		{"missing names", map[string]any{"smin": 8}, http.StatusBadRequest},
		{"bad variant", map[string]any{"x": "x", "y": "x", "variant": "turbo"}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/v1/search", tc.body)
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
}

// TestInvalidOptionsAnswer400 pins that options the search would reject are
// refused with 400 on both routes before admission: no queue slot, no
// worker and no failed-search count.
func TestInvalidOptionsAnswer400(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	x, y := testSeries(200, 0)
	ingest(t, ts.URL, "x", x)
	ingest(t, ts.URL, "y", y)

	cases := []struct {
		name string
		opts map[string]any
	}{
		{"smax below smin", map[string]any{"smin": 50, "smax": 10}},
		{"negative sigma", map[string]any{"sigma": -1}},
		{"smin not above k", map[string]any{"smin": 3}},
		{"epsilon not below sigma", map[string]any{"epsilon": 0.5, "sigma": 0.25}},
	}
	routes := []struct {
		path  string
		names map[string]any
	}{
		{"/v1/search", map[string]any{"x": "x", "y": "y"}},
		{"/v1/discover", map[string]any{"anchor": "x"}},
	}
	for _, tc := range cases {
		for _, route := range routes {
			t.Run(tc.name+route.path, func(t *testing.T) {
				body := map[string]any{}
				for k, v := range route.names {
					body[k] = v
				}
				for k, v := range tc.opts {
					body[k] = v
				}
				resp := postJSON(t, ts.URL+route.path, body)
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusBadRequest {
					t.Errorf("status = %d, want 400", resp.StatusCode)
				}
			})
		}
	}
	counters := s.registry.Snapshot().Counters
	for _, name := range []string{"daemon.search_failed", "daemon.discover_failed"} {
		if got := counters[name]; got != 0 {
			t.Errorf("%s = %d, want 0", name, got)
		}
	}

	// Discovery validates against the anchor: a candidate too short for
	// valid options stays a per-candidate error in a 200 answer.
	ingest(t, ts.URL, "stub", x[:20])
	resp := postJSON(t, ts.URL+"/v1/discover", map[string]any{
		"anchor": "x", "candidates": []string{"y", "stub"}, "smin": 30, "smax": 60,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("short candidate: status = %d, want 200", resp.StatusCode)
	}
	var out discoverResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Failed != 1 || len(out.Errors) != 1 || out.Errors[0].Name != "stub" {
		t.Errorf("short candidate: failed %d, errors %+v; want one error for stub", out.Failed, out.Errors)
	}
}

func TestHealthAndStatusEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, JournalPath: filepath.Join(t.TempDir(), "j.tycos")})
	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatalf("GET %s: %v", ep, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s = %d, want 200", ep, resp.StatusCode)
		}
	}
	x, _ := testSeries(64, 0)
	ingest(t, ts.URL, "a", x)

	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatalf("GET /statusz: %v", err)
	}
	var st statusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode statusz: %v", err)
	}
	resp.Body.Close()
	if st.Workers != 2 {
		t.Errorf("statusz workers = %d, want 2", st.Workers)
	}
	if len(st.Series) != 1 || st.Series[0].Name != "a" || st.Series[0].Len != 64 {
		t.Errorf("statusz series = %+v, want [{a 64}]", st.Series)
	}
	if st.Journal == nil || !st.Journal.Healthy {
		t.Errorf("statusz journal = %+v, want healthy", st.Journal)
	}
	if st.Counters["daemon.ingest_points"] != 64 {
		t.Errorf("ingest_points = %d, want 64", st.Counters["daemon.ingest_points"])
	}
}

func TestReadyzReportsDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	if err := s.Drain(t.Context()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("draining readyz missing Retry-After")
	}

	// Search and ingest are refused too.
	sr := postJSON(t, ts.URL+"/v1/search", searchBody())
	sr.Body.Close()
	if sr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("search while draining = %d, want 503", sr.StatusCode)
	}
	ir := postJSON(t, ts.URL+"/v1/series", ingestRequest{Name: "x", Values: []float64{1}})
	ir.Body.Close()
	if ir.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("ingest while draining = %d, want 503", ir.StatusCode)
	}
}

func TestJournalReplayServesIdenticalBytes(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.tycos")
	x, y := testSeries(160, 2)

	body, _ := json.Marshal(searchBody())

	run := func() (string, []byte) {
		s, err := New(Config{Workers: 1, JournalPath: jpath})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		defer s.Close()
		ingest(t, ts.URL, "x", x)
		ingest(t, ts.URL, "y", y)
		resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST search: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search status = %d", resp.StatusCode)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.Header.Get("X-Tycosd-Source"), buf.Bytes()
	}

	src1, body1 := run()
	if src1 != "computed" {
		t.Fatalf("first run source = %q, want computed", src1)
	}
	src2, body2 := run()
	if src2 != "journal" {
		t.Fatalf("second run source = %q, want journal (replayed across restart)", src2)
	}
	if !bytes.Equal(body1, body2) {
		t.Errorf("journal replay differs from computed response:\n%s\nvs\n%s", body1, body2)
	}
}

func TestJournalKeyDistinguishesDataAndOptions(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "journal.tycos")
	s, ts := newTestServer(t, Config{Workers: 1, JournalPath: jpath})
	x, y := testSeries(160, 2)
	ingest(t, ts.URL, "x", x)
	ingest(t, ts.URL, "y", y)

	resp := postJSON(t, ts.URL+"/v1/search", searchBody())
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status = %d", resp.StatusCode)
	}

	// Different σ → different fingerprint → computed, not replayed.
	b := searchBody()
	b["sigma"] = 0.3
	resp = postJSON(t, ts.URL+"/v1/search", b)
	resp.Body.Close()
	if got := resp.Header.Get("X-Tycosd-Source"); got != "computed" {
		t.Errorf("changed options replayed stale journal entry (source %q)", got)
	}

	// More data → different fingerprint too.
	ingest(t, ts.URL, "x", []float64{1, 2, 3})
	ingest(t, ts.URL, "y", []float64{1, 2, 3})
	resp = postJSON(t, ts.URL+"/v1/search", searchBody())
	resp.Body.Close()
	if got := resp.Header.Get("X-Tycosd-Source"); got != "computed" {
		t.Errorf("appended data replayed stale journal entry (source %q)", got)
	}

	if s.journal.Len() != 3 {
		t.Errorf("journal holds %d entries, want 3 distinct fingerprints", s.journal.Len())
	}
}

// fingerprintSink keeps BenchmarkSearchFingerprint's keys live.
var fingerprintSink string

// BenchmarkSearchFingerprint prices a computed /v1/search's journal key at
// daemon-mixed's request shape: two 400-sample series and the options the
// workload sends, defaulted as the handler defaults them. Every request
// hashes both series' values again.
func BenchmarkSearchFingerprint(b *testing.B) {
	x, y := testSeries(400, 2)
	req := searchRequest{X: "x3", Y: "y3", SMin: 8, SMax: 40, TDMax: 8, Sigma: 0.3, Variant: "lmn", Seed: 7, RestartWorkers: 1}
	req.applyDefaults(Config{Workers: 2})
	opts, err := req.options()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fingerprintSink = req.fingerprint(x, y, opts)
	}
}

func TestDrainFlushesJournal(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "journal.tycos")
	s, ts := newTestServer(t, Config{Workers: 2, JournalPath: jpath})
	x, y := testSeries(160, 2)
	ingest(t, ts.URL, "x", x)
	ingest(t, ts.URL, "y", y)
	resp := postJSON(t, ts.URL+"/v1/search", searchBody())
	resp.Body.Close()

	if err := s.Drain(t.Context()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// The journal must be complete and parseable by a fresh reader.
	j, err := checkpoint.Open(jpath)
	if err != nil {
		t.Fatalf("reopen drained journal: %v", err)
	}
	defer j.Close()
	if j.Len() != 1 {
		t.Errorf("drained journal holds %d results, want 1", j.Len())
	}
}

func TestDrainIsIdempotent(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	for i := 0; i < 3; i++ {
		if err := s.Drain(t.Context()); err != nil {
			t.Fatalf("Drain #%d: %v", i+1, err)
		}
	}
}

// saturate stalls the single worker with a delayed search and fills the
// 1-slot queue, so the next admission attempt must be shed. It returns after
// the server is verifiably saturated.
func saturate(t *testing.T, s *Server, ts *httptest.Server) {
	t.Helper()
	// The first two searches absorb the worker (stalled by the injected
	// delay) and the queue slot.
	for i := 0; i < 2; i++ {
		go func() {
			resp := postJSON(t, ts.URL+"/v1/search", searchBody())
			resp.Body.Close()
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.inflight.Load() == 1 && len(s.queue) == 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("server failed to saturate: inflight=%d queued=%d", s.inflight.Load(), len(s.queue))
}

func TestSaturationRejectWith429(t *testing.T) {
	faultinject.Set("daemon/search", faultinject.Fault{Delay: 500 * time.Millisecond, Times: 2})
	defer faultinject.Clear()
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, RetryAfter: 2 * time.Second})
	x, y := testSeries(160, 2)
	ingest(t, ts.URL, "x", x)
	ingest(t, ts.URL, "y", y)
	saturate(t, s, ts)

	resp := postJSON(t, ts.URL+"/v1/search", searchBody())
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated search = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want %q", got, "2")
	}
}

func TestSaturationDegradesToPCC(t *testing.T) {
	faultinject.Set("daemon/search", faultinject.Fault{Delay: 500 * time.Millisecond, Times: 2})
	defer faultinject.Clear()
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Shed: ShedDegrade})
	x, y := testSeries(160, 2)
	ingest(t, ts.URL, "x", x)
	ingest(t, ts.URL, "y", y)
	saturate(t, s, ts)

	resp := postJSON(t, ts.URL+"/v1/search", searchBody())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded search = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Tycosd-Source"); got != "degraded" {
		t.Errorf("X-Tycosd-Source = %q, want degraded", got)
	}
	out := decodeSearch(t, resp)
	if !out.Degraded || !out.Partial {
		t.Errorf("degraded response flags = {degraded:%v partial:%v}, want both true", out.Degraded, out.Partial)
	}
	if out.StopReason != "degraded-pcc" {
		t.Errorf("stop_reason = %q, want degraded-pcc", out.StopReason)
	}
	for _, w := range out.Windows {
		if w.Delay != 0 {
			t.Errorf("PCC pre-screen produced delay %d, must be 0", w.Delay)
		}
	}
}

// TestFloodNeverDeadlocks throws far more concurrent searches at a tiny
// server than it can queue; every request must come back as either a result
// or a shed, and the server must still drain cleanly. Run with -race this is
// the "shedding keeps the queue bounded and deadlock-free" acceptance check.
func TestFloodNeverDeadlocks(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 2})
	x, y := testSeries(160, 2)
	ingest(t, ts.URL, "x", x)
	ingest(t, ts.URL, "y", y)

	const flood = 40
	codes := make(chan int, flood)
	for i := 0; i < flood; i++ {
		go func() {
			resp := postJSON(t, ts.URL+"/v1/search", searchBody())
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	counts := map[int]int{}
	for i := 0; i < flood; i++ {
		select {
		case c := <-codes:
			counts[c]++
		case <-time.After(60 * time.Second):
			t.Fatalf("flood deadlocked: only %d/%d responses (%v)", i, flood, counts)
		}
	}
	if counts[http.StatusOK]+counts[http.StatusTooManyRequests] != flood {
		t.Errorf("unexpected status mix: %v", counts)
	}
	if counts[http.StatusOK] == 0 {
		t.Errorf("flood produced no successful searches: %v", counts)
	}
	if err := s.Drain(t.Context()); err != nil {
		t.Fatalf("drain after flood: %v", err)
	}
}
