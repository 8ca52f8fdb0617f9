package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func fixedClock() func() time.Time {
	t := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	return func() time.Time { return t }
}

func TestTraceWriterSchema(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	tw.now = fixedClock()

	tw.Event(RestartStarted{Pair: "x/y", Restart: 0, ScanFrom: 0})
	tw.Event(ClimbFinished{Pair: "x/y", Restart: 0, Window: Window{Start: 0, End: 9, Delay: 1}, Score: 0.5, Iterations: 7, Evaluations: 40})
	tw.Event(CandidateAccepted{Pair: "x/y", Window: Window{Start: 0, End: 9, Delay: 1}, Score: 0.5})
	tw.PhaseEnd(PhaseClimb, 1500*time.Microsecond)
	tw.Count("windows_evaluated", 40)
	tw.Count("windows_evaluated", 2)
	tw.Count("restarts", 1)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("want 5 trace lines, got %d:\n%s", len(lines), buf.String())
	}
	type line struct {
		TS    string          `json:"ts"`
		Event string          `json:"event"`
		Data  json.RawMessage `json:"data"`
	}
	var parsed []line
	for i, l := range lines {
		var ln line
		if err := json.Unmarshal([]byte(l), &ln); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, l)
		}
		if _, err := time.Parse(time.RFC3339Nano, ln.TS); err != nil {
			t.Errorf("line %d: bad timestamp %q: %v", i, ln.TS, err)
		}
		parsed = append(parsed, ln)
	}
	wantKinds := []string{"RestartStarted", "ClimbFinished", "CandidateAccepted", "PhaseFinished", "Counters"}
	for i, want := range wantKinds {
		if parsed[i].Event != want {
			t.Errorf("line %d: event %q, want %q", i, parsed[i].Event, want)
		}
	}
	var climb ClimbFinished
	if err := json.Unmarshal(parsed[1].Data, &climb); err != nil {
		t.Fatal(err)
	}
	if climb.Window != (Window{Start: 0, End: 9, Delay: 1}) || climb.Evaluations != 40 {
		t.Errorf("ClimbFinished round-trip mangled: %+v", climb)
	}
	var phase struct {
		Phase      string `json:"phase"`
		DurationNS int64  `json:"duration_ns"`
	}
	if err := json.Unmarshal(parsed[3].Data, &phase); err != nil {
		t.Fatal(err)
	}
	if phase.Phase != "climb" || phase.DurationNS != 1500000 {
		t.Errorf("PhaseFinished = %+v", phase)
	}
	var counts map[string]int64
	if err := json.Unmarshal(parsed[4].Data, &counts); err != nil {
		t.Fatal(err)
	}
	if counts["windows_evaluated"] != 42 || counts["restarts"] != 1 {
		t.Errorf("Counters = %v", counts)
	}
}

func TestTraceWriterCloseWithoutCountersOmitsSummary(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	tw.Event(RestartStarted{})
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "Counters") {
		t.Errorf("counterless trace still has a Counters line:\n%s", buf.String())
	}
}

type failingWriter struct{ n int }

func (w *failingWriter) Write(p []byte) (int, error) {
	w.n++
	return 0, errors.New("disk full")
}

func TestTraceWriterStickyError(t *testing.T) {
	tw := NewTraceWriter(&failingWriter{})
	// Overflow the 4K bufio buffer so the error surfaces.
	for i := 0; i < 200; i++ {
		tw.Event(RestartStarted{Pair: strings.Repeat("x", 64)})
	}
	if err := tw.Close(); err == nil {
		t.Fatal("write error not surfaced by Close")
	}
}

func TestMetricsAggregation(t *testing.T) {
	m := NewRegistry()
	for i := 0; i < 3; i++ {
		m.Event(RestartStarted{})
	}
	m.Event(ClimbFinished{})
	m.Count("evals", 40)
	m.Count("evals", 2)
	for _, d := range []time.Duration{5, 1, 9, 3, 7} {
		m.PhaseEnd(PhaseClimb, d*time.Millisecond)
	}

	s := m.Snapshot()
	if got := s.Events["RestartStarted"]; got != 3 {
		t.Errorf("Events[RestartStarted] = %d", got)
	}
	if s.Events["ClimbFinished"] != 1 || s.Counters["evals"] != 42 {
		t.Errorf("snapshot = %+v", s)
	}
	ph := s.Phases[PhaseClimb]
	if ph.Count != 5 {
		t.Errorf("phase count = %d, want 5", ph.Count)
	}
	if math.Abs(ph.Sum-0.025) > 1e-12 {
		t.Errorf("phase sum = %vs, want 0.025s", ph.Sum)
	}
	// The samples land in the buckets of 1ms, 3ms, 5ms, 7ms and 9ms.
	var want [HistogramBuckets]int64
	for _, d := range []time.Duration{5, 1, 9, 3, 7} {
		want[bucketIndex((d*time.Millisecond).Seconds())]++
	}
	if ph.Buckets != want {
		t.Errorf("phase buckets = %v, want %v", ph.Buckets, want)
	}
	// The snapshot is detached from further aggregation.
	m.Count("evals", 100)
	if s.Counters["evals"] != 42 {
		t.Error("snapshot mutated by later Count")
	}
}

func TestMetricsConcurrent(t *testing.T) {
	m := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				m.Event(PairFinished{})
				m.Count("n", 1)
				m.PhaseEnd(PhaseValidate, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if s.Events["PairFinished"] != 800 || s.Counters["n"] != 800 || s.Phases[PhaseValidate].Count != 800 {
		t.Errorf("lost updates: %+v", s)
	}
}

func TestMultiComposition(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Error("empty composition must be nil")
	}
	m := NewRegistry()
	if Multi(nil, m) != Sink(m) {
		t.Error("single sink must be returned unwrapped")
	}
	m2 := NewRegistry()
	both := Multi(m, m2)
	both.Event(RestartStarted{})
	both.Count("c", 2)
	both.PhaseEnd(PhaseFinalize, time.Millisecond)
	for i, sink := range []*Registry{m, m2} {
		s := sink.Snapshot()
		if s.Events["RestartStarted"] != 1 || s.Counters["c"] != 2 || s.Phases[PhaseFinalize].Count != 1 {
			t.Errorf("sink %d missed fan-out: %+v", i, s)
		}
	}
}

func TestEventKinds(t *testing.T) {
	kinds := map[Event]string{
		RestartStarted{}:    "RestartStarted",
		ClimbFinished{}:     "ClimbFinished",
		CandidateAccepted{}: "CandidateAccepted",
		DirectionPruned{}:   "DirectionPruned",
		NoiseBlockSkipped{}: "NoiseBlockSkipped",
		PairStarted{}:       "PairStarted",
		PairFinished{}:      "PairFinished",
	}
	for e, want := range kinds {
		if e.Kind() != want {
			t.Errorf("%T.Kind() = %q, want %q", e, e.Kind(), want)
		}
	}
}

func TestTraceWriterFlushDrainsBuffer(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf) // extra layer to prove Flush reaches buf
	tw := NewTraceWriter(bw)
	tw.Event(RestartStarted{})
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	if buf.Len() == 0 {
		t.Error("Flush left the line buffered")
	}
}

func TestGauges(t *testing.T) {
	m := NewRegistry()
	var s Sink = Multi(m, NewTraceWriter(io.Discard))
	SetGauge(s, "queue_depth", 3)
	SetGauge(s, "queue_depth", 7) // replaces, does not add
	SetGauge(s, "inflight", 1)
	snap := m.Snapshot()
	if got := snap.Gauges["queue_depth"]; got != 7 {
		t.Errorf("queue_depth = %d, want 7 (gauges replace)", got)
	}
	if snap.Gauges["inflight"] != 1 || len(snap.Gauges) != 2 {
		t.Errorf("snapshot gauges = %v", snap.Gauges)
	}
	// A sink with no gauge support (and nil) must be ignored, not panic.
	SetGauge(NewTraceWriter(io.Discard), "x", 1)
	SetGauge(nil, "x", 1)
}
