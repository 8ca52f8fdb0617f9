package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestRegistryExpositionIsValid(t *testing.T) {
	r := NewRegistry()
	r.Counter("tycos_demo_total", "A demo counter.").Add(3)
	r.GaugeSeries("tycos_level", "A demo gauge.").Set(-7)
	lat := r.HistogramVec("tycos_demo_seconds", "A demo histogram.", "route")
	lat.With("/v1/search").Observe(0.004)
	lat.With("/v1/search").Observe(0.2)
	lat.With("/healthz").Observe(1e-7)
	r.CounterVec("tycos_codes_total", "Labeled counter.", "route", "code").
		With("/v1/search", "200").Inc()

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	samples, err := CheckExposition(strings.NewReader(out))
	if err != nil {
		t.Fatalf("CheckExposition rejected registry output: %v\n%s", err, out)
	}
	if samples == 0 {
		t.Fatal("no samples rendered")
	}
	for _, want := range []string{
		"# TYPE tycos_demo_total counter",
		"tycos_demo_total 3",
		"# TYPE tycos_level gauge",
		"tycos_level -7",
		"# TYPE tycos_demo_seconds histogram",
		`tycos_demo_seconds_bucket{route="/healthz",le="1e-06"} 1`,
		`tycos_demo_seconds_count{route="/v1/search"} 2`,
		`tycos_codes_total{route="/v1/search",code="200"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// Gauges render without a _total suffix; empty pre-wired families render
	// nothing (no events were emitted).
	if strings.Contains(out, "tycos_search_events_total") {
		t.Error("empty family rendered")
	}
}

func TestRegistryDeterministicOutput(t *testing.T) {
	build := func() string {
		r := NewRegistry()
		r.Event(ClimbFinished{})
		r.Event(RestartStarted{})
		r.Count("climb.steps", 12)
		r.Count("mi.evals", 7)
		r.PhaseEnd(Phase("climb"), 3*time.Millisecond)
		r.Gauge("queue.depth", 4)
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
		return buf.String()
	}
	if a, b := build(), build(); a != b {
		t.Fatalf("identical registries rendered differently:\n%s\n---\n%s", a, b)
	}
}

func TestRegistrySinkMapping(t *testing.T) {
	r := NewRegistry()
	r.Event(ClimbFinished{})
	r.Event(Traced{Span: NewTrace(1, 1), Event: ClimbFinished{}}) // stamped aggregates identically
	r.Count("climb.steps", 5)
	r.PhaseEnd(Phase("climb"), 2*time.Millisecond)
	r.Gauge("queue.depth", 9)

	if got := r.events.With("ClimbFinished").Value(); got != 2 {
		t.Fatalf("event counter = %d, want 2", got)
	}
	// Snapshot keys counters and gauges by the name the Sink received.
	snap := r.Snapshot()
	if snap.Counters["climb.steps"] != 5 || snap.Gauges["queue.depth"] != 9 || snap.Events["ClimbFinished"] != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		`tycos_search_events_total{kind="ClimbFinished"} 2`,
		"tycos_climb_steps_total 5",
		`tycos_search_phase_duration_seconds_count{phase="climb"} 1`,
		"tycos_queue_depth 9",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
	if _, err := CheckExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("CheckExposition: %v", err)
	}
}

func TestRegistryLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("tycos_weird_total", "Escaping.", "v").
		With("a\"b\\c\nd").Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, `v="a\"b\\c\nd"`) {
		t.Fatalf("label not escaped:\n%s", out)
	}
	if _, err := CheckExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("CheckExposition rejected escaped output: %v\n%s", err, out)
	}
}

func TestRegistryReregisterPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("tycos_x_total", "first")
	// Same name + same shape is fine and returns the same series.
	s := r.Counter("tycos_x_total", "first")
	s.Add(2)
	if got := r.Counter("tycos_x_total", "first").Value(); got != 2 {
		t.Fatalf("re-fetched series detached: %d", got)
	}
	assertPanics(t, "kind change", func() { r.GaugeSeries("tycos_x_total", "oops") })
	assertPanics(t, "label change", func() { r.CounterVec("tycos_x_total", "oops", "route") })
	assertPanics(t, "arity mismatch", func() {
		r.CounterVec("tycos_y_total", "labeled", "route").With("a", "b")
	})
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	f()
}

func TestSanitizeName(t *testing.T) {
	for in, want := range map[string]string{
		"climb.steps":   "climb_steps",
		"queue-depth":   "queue_depth",
		"ok_name9":      "ok_name9",
		"9starts.digit": "_starts_digit",
	} {
		if got := sanitizeName(in); got != want {
			t.Errorf("sanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestRegistryWarmSinkAllocs pins the Sink hot path: once a counter or gauge
// name, event kind or phase has been seen, emitting it again allocates
// nothing, and neither does a search's per-kind event total (CountKind).
func TestRegistryWarmSinkAllocs(t *testing.T) {
	r := NewRegistry()
	var ev Event = ClimbFinished{} // boxed once, as an emitter holds it
	for name, emit := range map[string]func(){
		"Count":     func() { r.Count("daemon.search_requests", 1) },
		"Gauge":     func() { r.Gauge("runtime.heap_bytes", 3) },
		"PhaseEnd":  func() { r.PhaseEnd(PhaseClimb, time.Millisecond) },
		"Event":     func() { r.Event(ev) },
		"CountKind": func() { r.CountKind("ClimbFinished", 3) },
	} {
		emit() // first sight registers the series
		if n := testing.AllocsPerRun(100, emit); n != 0 {
			t.Errorf("warm %s allocates %v times per call, want 0", name, n)
		}
	}
}
