package daemon

import (
	"errors"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tycos/internal/faultinject"
)

// failWriter models a slow-log destination that stopped accepting bytes
// (full disk, closed pipe).
type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("disk full") }

// TestSlowLogWriteFailureCounted is the regression test for the errdrop
// finding in writeSlowLog: a failed slow-log write used to vanish silently;
// it must increment daemon.slowlog_failed so operators can tell an empty log
// from a healthy one.
func TestSlowLogWriteFailureCounted(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1, Seed: 7,
		SlowLogThreshold: time.Nanosecond,
		SlowLog:          failWriter{},
	})
	x, y := testSeries(160, 2)
	ingest(t, ts.URL, "x", x)
	ingest(t, ts.URL, "y", y)
	resp := postJSON(t, ts.URL+"/v1/search", searchBody())
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status = %d", resp.StatusCode)
	}
	if got := s.registry.Snapshot().Counters["daemon.slowlog_failed"]; got != 1 {
		t.Errorf("daemon.slowlog_failed = %d, want 1", got)
	}
	// The search itself still counts as slow: the failure counter is an
	// addition, not a replacement.
	if got := s.registry.Snapshot().Counters["daemon.slow_searches"]; got != 1 {
		t.Errorf("daemon.slow_searches = %d, want 1", got)
	}
}

// TestCloseSurfacesJournalCloseError is the regression test for the errdrop
// finding in Server.Close: when a prior Drain timed out before closing the
// journal, Close performs the first (and only) journal close, and its error
// used to be discarded — the one signal that the final journal bytes may not
// have landed.
func TestCloseSurfacesJournalCloseError(t *testing.T) {
	s, err := New(Config{
		Workers:     1,
		JournalPath: filepath.Join(t.TempDir(), "journal.jsonl"),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Simulate a prior Drain that expired before reaching the journal:
	// draining is latched but the journal is still open.
	s.draining.Store(true)

	faultinject.Set("checkpoint/close", faultinject.Fault{Err: errors.New("close lost"), Times: 1})
	defer faultinject.Clear()

	cerr := s.Close()
	if cerr == nil {
		t.Fatal("Close swallowed the journal close error")
	}
	if !strings.Contains(cerr.Error(), "close lost") {
		t.Fatalf("Close error = %v, want the journal close error", cerr)
	}
}
