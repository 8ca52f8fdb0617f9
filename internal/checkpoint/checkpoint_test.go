package checkpoint

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"tycos/internal/core"
	"tycos/internal/faultinject"
	"tycos/internal/series"
	"tycos/internal/window"
)

func testResult(n int) core.Result {
	return core.Result{
		Windows: []window.Scored{
			{Window: window.Window{Start: 10 * n, End: 10*n + 9, Delay: n}, MI: 0.5 + float64(n)/100},
		},
		Stats: core.Stats{WindowsEvaluated: 100 * n, Restarts: n, StopReason: core.StopCompleted},
	}
}

func TestJournalRecordLookupReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := j.Lookup("a", "b"); ok {
		t.Fatal("empty journal reported a record")
	}
	if err := j.Record("a", "b", testResult(1)); err != nil {
		t.Fatal(err)
	}
	if err := j.Record("a", "c", testResult(2)); err != nil {
		t.Fatal(err)
	}
	if got, ok := j.Lookup("a", "b"); !ok || got.Stats.WindowsEvaluated != 100 {
		t.Errorf("lookup after record: %+v, %v", got, ok)
	}
	if j.Len() != 2 {
		t.Errorf("Len = %d, want 2", j.Len())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 2 {
		t.Fatalf("reopened journal Len = %d, want 2", j2.Len())
	}
	got, ok := j2.Lookup("a", "b")
	if !ok {
		t.Fatal("record lost across reopen")
	}
	want := testResult(1)
	if len(got.Windows) != 1 || got.Windows[0] != want.Windows[0] || got.Stats != want.Stats {
		t.Errorf("round-tripped result differs: %+v vs %+v", got, want)
	}
}

// A kill mid-write leaves a torn trailing line; reopening must recover every
// intact record, ignore the torn tail, and not glue the next record onto it.
func TestJournalTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Record("a", "b", testResult(1))
	j.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"x":"a","y":"c","result":{"Windows"`) // torn, no newline
	f.Close()

	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Len() != 1 {
		t.Fatalf("Len after torn tail = %d, want 1", j2.Len())
	}
	if _, ok := j2.Lookup("a", "c"); ok {
		t.Error("torn record resurrected")
	}
	if err := j2.Record("a", "d", testResult(3)); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	j3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Len() != 2 {
		t.Errorf("Len after append-past-torn-tail = %d, want 2", j3.Len())
	}
	if _, ok := j3.Lookup("a", "d"); !ok {
		t.Error("record appended after a torn tail was lost")
	}
}

func TestJournalRecordAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := j.Record("a", "b", testResult(1)); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("Record on closed journal: %v", err)
	}
}

// sweepSeries builds deterministic noise series with one coupled pair.
func sweepSeries(names ...string) []series.Series {
	rng := rand.New(rand.NewSource(61))
	ss := make([]series.Series, len(names))
	for i, name := range names {
		v := make([]float64, 250)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		ss[i] = series.New(name, v)
	}
	return ss
}

// TestSweepKeyCoversValuesAndOptions checks that a sweep over the same
// names with other values or options replays nothing from the journal, and
// that a repeated sweep replays every pair.
func TestSweepKeyCoversValuesAndOptions(t *testing.T) {
	ss := sweepSeries("a", "b", "c")
	opts := core.Options{SMin: 10, SMax: 60, TDMax: 5, Sigma: 0.25, MaxIdle: 3, Seed: 1}
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	other := opts
	other.Sigma = 0.5
	rev := reversedSeries(ss)

	first := core.SearchAllContext(context.Background(), ss, opts, core.SweepOptions{Checkpoint: j})
	for _, run := range []struct {
		name string
		ss   []series.Series
		opts core.Options
	}{{"other σ", ss, other}, {"reversed values", rev, opts}} {
		got := core.SearchAllContext(context.Background(), run.ss, run.opts, core.SweepOptions{Checkpoint: j})
		want := core.SearchAllContext(context.Background(), run.ss, run.opts, core.SweepOptions{})
		for i, pr := range got {
			if pr.FromCheckpoint || pr.Err != nil {
				t.Errorf("%s: pair (%s,%s) replayed %v, err %v", run.name, pr.XName, pr.YName, pr.FromCheckpoint, pr.Err)
			}
			if pr.Result.Stats.WindowsEvaluated != want[i].Result.Stats.WindowsEvaluated || len(pr.Result.Windows) != len(want[i].Result.Windows) {
				t.Errorf("%s: pair (%s,%s) differs from a journal-free sweep", run.name, pr.XName, pr.YName)
			}
		}
	}
	for i, pr := range core.SearchAllContext(context.Background(), ss, opts, core.SweepOptions{Checkpoint: j}) {
		if !pr.FromCheckpoint || pr.Result.Stats.WindowsEvaluated != first[i].Result.Stats.WindowsEvaluated {
			t.Errorf("repeated sweep: pair (%s,%s) replayed %v", pr.XName, pr.YName, pr.FromCheckpoint)
		}
	}
}

// reversedSeries returns copies of ss with each series' values reversed
// under the same name.
func reversedSeries(ss []series.Series) []series.Series {
	out := make([]series.Series, len(ss))
	for i, s := range ss {
		v := append([]float64(nil), s.Values...)
		slices.Reverse(v)
		out[i] = series.New(s.Name, v)
	}
	return out
}

// The acceptance scenario: a sweep with one persistently failing pair
// journals the others; after a "restart" with the fault gone, only the
// unjournaled pair is recomputed.
func TestSweepResumeRecomputesOnlyUnjournaledPairs(t *testing.T) {
	defer faultinject.Clear()
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	ss := sweepSeries("a", "b", "c")
	opts := core.Options{SMin: 10, SMax: 60, TDMax: 5, Sigma: 0.25, MaxIdle: 3, Seed: 1}

	faultinject.Set("a/c", faultinject.Fault{Err: errors.New("flaky sensor")})
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	first := core.SearchAllContext(context.Background(), ss, opts, core.SweepOptions{Checkpoint: j})
	if len(first) != 3 {
		t.Fatalf("want 3 pairs, got %d", len(first))
	}
	for _, pr := range first {
		failed := pr.XName == "a" && pr.YName == "c"
		if failed != (pr.Err != nil) {
			t.Fatalf("pair (%s,%s): Err=%v", pr.XName, pr.YName, pr.Err)
		}
	}
	if j.Len() != 2 {
		t.Fatalf("journal holds %d pairs after faulty sweep, want 2", j.Len())
	}
	j.Close() // the "kill"

	faultinject.Clear()
	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	second := core.SearchAllContext(context.Background(), ss, opts, core.SweepOptions{Checkpoint: j2})
	recomputed := 0
	for i, pr := range second {
		if pr.Err != nil {
			t.Fatalf("pair (%s,%s) failed on resume: %v", pr.XName, pr.YName, pr.Err)
		}
		if pr.FromCheckpoint {
			if pr.Attempts != 0 {
				t.Errorf("restored pair (%s,%s) reports %d attempts", pr.XName, pr.YName, pr.Attempts)
			}
			// Restored results must round-trip exactly.
			a, b := first[i].Result, pr.Result
			if a.Stats != b.Stats || len(a.Windows) != len(b.Windows) {
				t.Errorf("restored pair (%s,%s) differs from the original result", pr.XName, pr.YName)
			}
			continue
		}
		recomputed++
		if pr.XName != "a" || pr.YName != "c" {
			t.Errorf("journaled pair (%s,%s) was recomputed", pr.XName, pr.YName)
		}
	}
	if recomputed != 1 {
		t.Errorf("resume recomputed %d pairs, want exactly the 1 unjournaled pair", recomputed)
	}
	if j2.Len() != 3 {
		t.Errorf("journal holds %d pairs after resume, want 3", j2.Len())
	}
}

// A multi-GB journal must not be slurped whole; the regression proxy is a
// line past the 8 MiB line bound that Open must skip while still recovering
// every intact record around it.
func TestOpenSkipsOversizedGarbageLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Record("a", "b", testResult(1))
	j.Close()

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A 9 MiB line that parses as a record, so that only the line bound can
	// skip it, then an intact record, then a torn tail.
	oversized := `{"x":"a","y":"` + strings.Repeat("x", 9<<20) + `","result":{}}`
	f.WriteString(oversized + "\n")
	line, _ := json.Marshal(struct {
		X string      `json:"x"`
		Y string      `json:"y"`
		R core.Result `json:"result"`
	}{X: "a", Y: "c", R: testResult(2)})
	f.Write(append(line, '\n'))
	f.WriteString(`{"x":"a","y":"d","result":`) // torn
	f.Close()

	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 2 {
		t.Fatalf("Len = %d, want the 2 intact records around the oversized line", j2.Len())
	}
	if _, ok := j2.Lookup("a", "c"); !ok {
		t.Error("intact record after the oversized line was lost")
	}
	if _, ok := j2.Lookup("a", "d"); ok {
		t.Error("torn tail resurrected")
	}
}

// A record longer than the line bound must be refused at write time —
// otherwise reopen would silently drop it.
func TestRecordRefusesOversizedLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Record("a", strings.Repeat("y", maxLineBytes+1), testResult(1)); err == nil || !strings.Contains(err.Error(), "line bound") {
		t.Fatalf("oversized record accepted: %v", err)
	}
	if j.Len() != 0 {
		t.Error("refused record entered the in-memory index")
	}
}

func TestFsyncOptionStillRoundTrips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := OpenOptions(path, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("a", "b", testResult(1)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if _, ok := j2.Lookup("a", "b"); !ok {
		t.Error("fsynced record lost")
	}
}

// Compact must drop overwritten keys and garbage, keep every live record,
// and leave a journal that reopens to the same contents.
func TestCompactShrinksAndPreservesRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		// The same key re-recorded 20 times: 19 dead lines.
		if err := j.Record("a", "b", testResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Record("a", "c", testResult(99)); err != nil {
		t.Fatal(err)
	}
	before := j.SizeBytes()
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	after := j.SizeBytes()
	if after >= before {
		t.Errorf("Compact grew the journal: %d -> %d bytes", before, after)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != after {
		t.Errorf("SizeBytes %d disagrees with stat %v (%v)", after, st.Size(), err)
	}
	// The journal stays appendable after the rename swapped its fd.
	if err := j.Record("a", "d", testResult(7)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 3 {
		t.Fatalf("Len after compact+reopen = %d, want 3", j2.Len())
	}
	if got, ok := j2.Lookup("a", "b"); !ok || got.Stats.Restarts != 19 {
		t.Errorf("compacted journal kept the wrong version of a/b: %+v ok=%v", got.Stats, ok)
	}
}

// AutoCompactBytes triggers compaction from inside Record once the file is
// mostly dead weight.
func TestAutoCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := OpenOptions(path, Options{AutoCompactBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 200; i++ {
		if err := j.Record("a", "b", testResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	// 200 rewrites of one ~160-byte record ≈ 32 KiB raw; auto-compaction
	// must have kept the file near one live record.
	if sz := j.SizeBytes(); sz > 2048 {
		t.Errorf("journal is %d bytes after 200 overwrites, want auto-compacted under 2048", sz)
	}
	if j.Len() != 1 {
		t.Errorf("Len = %d, want 1", j.Len())
	}
}

// An injected failure at the torn-write chaos point must leave a torn line
// that the next Open skips, with the failed record absent — zero completed-
// record loss means exactly: error reported ⇒ not journaled, no error ⇒
// journaled.
func TestInjectedTornWriteIsSkippedOnReopen(t *testing.T) {
	defer faultinject.Clear()
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("a", "b", testResult(1)); err != nil {
		t.Fatal(err)
	}
	faultinject.Set("checkpoint/record.torn", faultinject.Fault{Err: errors.New("disk died"), Times: 1})
	if err := j.Record("a", "c", testResult(2)); err == nil {
		t.Fatal("torn write reported success")
	}
	j.Close()

	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if _, ok := j2.Lookup("a", "c"); ok {
		t.Error("torn record resurrected on reopen")
	}
	if _, ok := j2.Lookup("a", "b"); !ok {
		t.Error("intact record before the torn line was lost")
	}
	// And the journal heals: appending works and survives reopen.
	if err := j2.Record("a", "c", testResult(2)); err != nil {
		t.Fatal(err)
	}
	if _, ok := j2.Lookup("a", "c"); !ok {
		t.Error("healed record missing")
	}
}

func TestInjectedRecordErrorIsRetryable(t *testing.T) {
	defer faultinject.Clear()
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	faultinject.Set("checkpoint/record", faultinject.Fault{Err: errors.New("transient"), Times: 2})
	var lastErr error
	attempts := 0
	for ; attempts < 5; attempts++ {
		if lastErr = j.Record("a", "b", testResult(1)); lastErr == nil {
			break
		}
	}
	if lastErr != nil || attempts != 2 {
		t.Fatalf("retry loop: attempts=%d err=%v, want success on the 3rd call", attempts, lastErr)
	}
	if _, ok := j.Lookup("a", "b"); !ok {
		t.Error("record missing after successful retry")
	}
}
