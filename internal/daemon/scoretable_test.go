package daemon

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
)

// searchBytes posts a search and returns its source header and body.
func searchBytes(t *testing.T, base string, body map[string]any) (string, []byte) {
	t.Helper()
	resp := postJSON(t, base+"/v1/search", body)
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d: %s", resp.StatusCode, data)
	}
	return resp.Header.Get("X-Tycosd-Source"), data
}

// seeded is searchBody at another seed and SMax.
func seeded(seed int64, smax int) map[string]any {
	b := searchBody()
	b["seed"], b["smax"] = seed, smax
	return b
}

// TestScoreTableServesIdenticalBytes checks that a /v1/search body, stats
// included, is byte-identical from a server whose score table earlier
// searches of the pair warmed and from a fresh server, and that the warm
// search did take estimates from the table.
func TestScoreTableServesIdenticalBytes(t *testing.T) {
	x, y := testSeries(400, 3)
	warm, wts := newTestServer(t, Config{Workers: 2})
	ingest(t, wts.URL, "x", x)
	ingest(t, wts.URL, "y", y)
	for _, seed := range []int64{2, 3, 4} {
		searchBytes(t, wts.URL, seeded(seed, 40))
	}
	before := warm.registry.Snapshot().Counters["score_table_hits"]
	src, warmBody := searchBytes(t, wts.URL, seeded(1, 40))
	if src != "computed" {
		t.Fatalf("warm search source %q", src)
	}
	if hits := warm.registry.Snapshot().Counters["score_table_hits"] - before; hits == 0 {
		t.Fatal("the warm search took nothing from the table, so the comparison proves nothing")
	}

	_, fts := newTestServer(t, Config{Workers: 2})
	ingest(t, fts.URL, "x", x)
	ingest(t, fts.URL, "y", y)
	_, freshBody := searchBytes(t, fts.URL, seeded(1, 40))
	if !bytes.Equal(warmBody, freshBody) {
		t.Errorf("warm and fresh servers answer differently:\n%s\n%s", warmBody, freshBody)
	}
}

// TestScoreTableHandleSurvivesGrowth pins what a pair's handle relies on:
// the store never rewrites a stored value, so after both series grow, a
// search of the pair through the table its shorter self filled answers
// byte for byte as a fresh server holding the longer series.
func TestScoreTableHandleSurvivesGrowth(t *testing.T) {
	x, y := testSeries(400, 3)
	grown, gts := newTestServer(t, Config{Workers: 1})
	ingest(t, gts.URL, "x", x[:240])
	ingest(t, gts.URL, "y", y[:240])
	searchBytes(t, gts.URL, seeded(2, 40))
	ingest(t, gts.URL, "x", x[240:])
	ingest(t, gts.URL, "y", y[240:])
	before := grown.registry.Snapshot().Counters["score_table_hits"]
	_, grownBody := searchBytes(t, gts.URL, seeded(1, 40))
	if grown.registry.Snapshot().Counters["score_table_hits"] == before {
		t.Fatal("the search after the growth took nothing from the table")
	}

	_, fts := newTestServer(t, Config{Workers: 1})
	ingest(t, fts.URL, "x", x)
	ingest(t, fts.URL, "y", y)
	_, freshBody := searchBytes(t, fts.URL, seeded(1, 40))
	if !bytes.Equal(grownBody, freshBody) {
		t.Errorf("a grown pair answers differently through the table:\n%s\n%s", grownBody, freshBody)
	}
}

// TestStoreNeverRewritesValues pins the store's append-only contract: a
// snapshot taken before appends that reallocate the column keeps its
// values, and so does the column's prefix.
func TestStoreNeverRewritesValues(t *testing.T) {
	st := store{series: make(map[string][]float64)}
	x, _ := testSeries(50, 0)
	st.Append("x", x)
	snap, _ := st.Get("x")
	want := append([]float64(nil), snap...)
	for i := 0; i < 20; i++ {
		st.Append("x", []float64{float64(-i), 1e9})
	}
	now, _ := st.Get("x")
	for i, v := range want {
		if snap[i] != v || now[i] != v {
			t.Fatalf("value %d: stored %v, snapshot reads %v, column reads %v", i, v, snap[i], now[i])
		}
	}
}

// TestScoreTableObservable checks the table's telemetry: two searches of
// one pair at different seeds surface tycos_score_table_hits_total on
// /metrics, and /statusz reports the table's capacity, occupancy and
// evictions.
func TestScoreTableObservable(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	x, y := testSeries(160, 2)
	ingest(t, ts.URL, "x", x)
	ingest(t, ts.URL, "y", y)
	searchBytes(t, ts.URL, seeded(1, 16))
	searchBytes(t, ts.URL, seeded(2, 16))

	_, metrics := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, "tycos_score_table_hits_total ") {
		t.Error("/metrics has no tycos_score_table_hits_total")
	}
	resp, body := getBody(t, ts.URL+"/statusz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/statusz status %d", resp.StatusCode)
	}
	var st struct {
		ScoreTable struct {
			Capacity  int   `json:"capacity"`
			Occupied  int64 `json:"occupied"`
			Evictions int64 `json:"evictions"`
		} `json:"score_table"`
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.ScoreTable.Capacity != scoreTable().Stats().Capacity || st.ScoreTable.Occupied <= 0 || st.ScoreTable.Occupied > int64(st.ScoreTable.Capacity) {
		t.Errorf("/statusz score_table = %+v", st.ScoreTable)
	}
	if !strings.Contains(body, `"evictions":`) {
		t.Error("/statusz score_table reports no evictions field")
	}
	if st.Counters["score_table_hits"] == 0 {
		t.Error("the second search of the pair took nothing from the table")
	}
}

// TestJournalKeyCoversValues is the restart probe: a daemon restarted on
// the same journal, with x and y re-ingested as other values of the same
// length, must compute the new data's answer, not replay the old one.
func TestJournalKeyCoversValues(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "journal.tycos")
	run := func(delay int, journal string) (string, []byte) {
		s, err := New(Config{Workers: 1, JournalPath: journal})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		x, y := testSeries(160, delay)
		ingest(t, ts.URL, "x", x)
		ingest(t, ts.URL, "y", y)
		return searchBytes(t, ts.URL, searchBody())
	}
	if src, _ := run(2, jpath); src != "computed" {
		t.Fatalf("first search source %q", src)
	}
	src, got := run(99, jpath)
	if src != "computed" {
		t.Errorf("other values of the same length answered from %q", src)
	}
	_, want := run(99, "")
	if !bytes.Equal(got, want) {
		t.Errorf("the restarted daemon answers the new data with other windows:\n%s\n%s", got, want)
	}
	if src, _ := run(99, jpath); src != "journal" {
		t.Errorf("the same values again answered from %q, want journal", src)
	}
}
