package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"tycos/internal/faultinject"
)

// TestWorkerSurvivesSearchPanic injects a panic into one search: that
// request gets a 500, the worker pool survives, and the very next request
// is served normally.
func TestWorkerSurvivesSearchPanic(t *testing.T) {
	faultinject.Set("daemon/search", faultinject.Fault{Panic: "chaos: search exploded", Times: 1})
	defer faultinject.Clear()
	s, ts := newTestServer(t, Config{Workers: 1})
	x, y := testSeries(160, 2)
	ingest(t, ts.URL, "x", x)
	ingest(t, ts.URL, "y", y)

	resp := postJSON(t, ts.URL+"/v1/search", searchBody())
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicked search = %d, want 500", resp.StatusCode)
	}

	resp = postJSON(t, ts.URL+"/v1/search", searchBody())
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search after panic = %d, want 200 (worker must survive)", resp.StatusCode)
	}
	if got := s.registry.Snapshot().Counters["daemon.search_failed"]; got != 1 {
		t.Errorf("search_failed counter = %d, want 1", got)
	}
	if got := s.registry.Snapshot().Counters["daemon.worker_lost"]; got != 0 {
		t.Errorf("worker_lost counter = %d, want 0 (panic recovered per task)", got)
	}
}

// TestJournalDegradationAndRecovery breaks the journal past the retry
// budget: the search still answers 200, readyz flips to 503, and once the
// fault clears the next journaled search restores readiness.
func TestJournalDegradationAndRecovery(t *testing.T) {
	faultinject.Set("checkpoint/record", faultinject.Fault{Err: errors.New("disk on fire"), Times: 10})
	defer faultinject.Clear()
	s, ts := newTestServer(t, Config{
		Workers: 1, JournalPath: filepath.Join(t.TempDir(), "j.tycos"),
		RetryAttempts: 2, RetryBase: time.Millisecond,
	})
	x, y := testSeries(160, 2)
	ingest(t, ts.URL, "x", x)
	ingest(t, ts.URL, "y", y)

	resp := postJSON(t, ts.URL+"/v1/search", searchBody())
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search with broken journal = %d, want 200 (durability loss must not fail the request)", resp.StatusCode)
	}
	r, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz with degraded journal = %d, want 503", r.StatusCode)
	}
	if got := s.registry.Snapshot().Counters["daemon.journal_degraded"]; got != 1 {
		t.Errorf("journal_degraded counter = %d, want 1", got)
	}

	// Fault clears; a different search journals successfully and readiness
	// recovers.
	faultinject.Clear()
	b := searchBody()
	b["sigma"] = 0.3
	resp = postJSON(t, ts.URL+"/v1/search", b)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search after journal recovery = %d, want 200", resp.StatusCode)
	}
	r, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Errorf("readyz after recovery = %d, want 200", r.StatusCode)
	}
}

// TestTransientJournalErrorIsAbsorbed: a single injected record failure is
// retried within the budget; the journal stays healthy and the record lands.
func TestTransientJournalErrorIsAbsorbed(t *testing.T) {
	faultinject.Set("daemon/journal", faultinject.Fault{Err: errors.New("blip"), Times: 1})
	defer faultinject.Clear()
	s, ts := newTestServer(t, Config{
		Workers: 1, JournalPath: filepath.Join(t.TempDir(), "j.tycos"),
		RetryAttempts: 3, RetryBase: time.Millisecond,
	})
	x, y := testSeries(160, 2)
	ingest(t, ts.URL, "x", x)
	ingest(t, ts.URL, "y", y)

	resp := postJSON(t, ts.URL+"/v1/search", searchBody())
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search = %d, want 200", resp.StatusCode)
	}
	if got := s.registry.Snapshot().Counters["daemon.journal_degraded"]; got != 0 {
		t.Errorf("journal_degraded = %d, want 0 (one blip is inside the retry budget)", got)
	}
	if s.journal.Len() != 1 {
		t.Errorf("journal holds %d records, want 1", s.journal.Len())
	}
}

// TestAbandonedServerResumesByteIdentical simulates a crash by abandoning a
// server mid-life (no drain, no close) and starting a successor on the same
// journal: every result the first server completed is replayed byte-for-byte
// and new work still computes. This is the in-process half of the SIGKILL
// story; cmd/tycosd's chaos test does it with a real kill -9.
func TestAbandonedServerResumesByteIdentical(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "journal.tycos")
	x, y := testSeries(160, 2)
	bodies := []map[string]any{
		searchBody(),
		{"x": "x", "y": "y", "smin": 8, "smax": 16, "tdmax": 4, "sigma": 0.3},
	}

	search := func(ts *httptest.Server, body map[string]any) (string, []byte, int) {
		b, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatalf("POST search: %v", err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.Header.Get("X-Tycosd-Source"), buf.Bytes(), resp.StatusCode
	}

	// First life: compute both searches, then vanish without cleanup.
	s1, err := New(Config{Workers: 2, JournalPath: jpath})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	ingest(t, ts1.URL, "x", x)
	ingest(t, ts1.URL, "y", y)
	var golden [][]byte
	for _, b := range bodies {
		src, body, code := search(ts1, b)
		if code != http.StatusOK || src != "computed" {
			t.Fatalf("first-life search: code %d source %q", code, src)
		}
		golden = append(golden, body)
	}
	ts1.Close() // abandon s1: workers still running, journal never closed

	// Second life: same journal, same data, same requests.
	s2, err := New(Config{Workers: 2, JournalPath: jpath})
	if err != nil {
		t.Fatalf("New (resumed): %v", err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.Close()
	ingest(t, ts2.URL, "x", x)
	ingest(t, ts2.URL, "y", y)
	for i, b := range bodies {
		src, body, code := search(ts2, b)
		if code != http.StatusOK {
			t.Fatalf("resumed search %d: code %d", i, code)
		}
		if src != "journal" {
			t.Errorf("resumed search %d recomputed (source %q), want journal replay", i, src)
		}
		if !bytes.Equal(body, golden[i]) {
			t.Errorf("resumed search %d differs from golden:\n%s\nvs\n%s", i, body, golden[i])
		}
	}
	// New work (different options) still computes on the resumed server.
	src, _, code := search(ts2, map[string]any{"x": "x", "y": "y", "smin": 8, "smax": 16, "tdmax": 4, "sigma": 0.25})
	if code != http.StatusOK || src != "computed" {
		t.Errorf("fresh search on resumed server: code %d source %q, want 200/computed", code, src)
	}
}
