package obs

import (
	"bytes"
	"io"
	"os"
	"runtime/debug"
	"testing"
	"time"
)

// The trace golden pins TraceWriter's lines byte for byte. It was rendered
// by the writer that marshalled each line with encoding/json; regenerate it
// only for an intended format change:
//
//	go test ./internal/obs -run TestTraceWriterGolden -update
const traceGolden = "testdata/trace.golden"

// steppingClock returns a clock that starts on a whole second and advances
// by each step in turn (the last one repeating), so the golden covers
// RFC 3339 timestamps with and without a fraction.
func steppingClock(steps ...time.Duration) func() time.Time {
	t := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	i := 0
	return func() time.Time {
		now := t
		t = t.Add(steps[min(i, len(steps)-1)])
		i++
		return now
	}
}

// oddKind is an event whose kind needs JSON escaping, which no event of
// the search has.
type oddKind struct {
	Note string `json:"note"`
}

func (oddKind) Kind() string { return "odd<kind>&\"q\"" }

// htmlKind is an event whose kind needs HTML escaping only.
type htmlKind struct{}

func (htmlKind) Kind() string { return "a<b>&c" }

// goldenTrace writes every line shape the writer produces: unstamped
// events, events stamped by a root span (no parent) and by a child span,
// unstamped and stamped PhaseFinished lines, a payload whose strings need
// HTML escaping, kinds that need escaping, a span-closing event, and the final Counters line.
func goldenTrace(w io.Writer) error {
	tw := NewTraceWriter(w)
	tw.now = steppingClock(time.Second, 1500*time.Millisecond, 123456789*time.Nanosecond, 10*time.Microsecond)
	root := NewTrace(5, 1)
	child := root.Child("search:<x>&y")
	tw.Event(RestartStarted{Pair: "x/y", Restart: 0, ScanFrom: 0})
	tw.Event(Traced{Span: root, Event: RestartStarted{Restart: 1, ScanFrom: 40}})
	tw.Event(Traced{Span: child, Event: ClimbFinished{Pair: "<x>&y", Restart: 1, Window: Window{Start: 3, End: 19, Delay: -2}, Score: 0.4375, Iterations: 7, Evaluations: 112}})
	tw.Event(CandidateAccepted{Pair: "x/y", Window: Window{Start: 3, End: 19, Delay: -2}, Score: 1e-7})
	tw.Event(DirectionPruned{Window: Window{Start: 0, End: 9}, Direction: "end-forward"})
	tw.Event(NoiseBlockSkipped{Block: Window{Start: 10, End: 19}})
	tw.Event(PairFinished{Pair: "a/b", Attempt: 2, Index: 1, Total: 3, Windows: 4, Partial: true, Err: "bad <input> & \"quotes\"", Duration: 1500 * time.Millisecond})
	tw.Event(oddKind{Note: "tab\there"})
	tw.Event(htmlKind{})
	tw.PhaseEnd(PhaseValidate, 3*time.Microsecond)
	tw.SpanPhaseEnd(child, PhaseClimb, 1500*time.Millisecond)
	tw.SpanPhaseEnd(root, PhaseFinalize, 0)
	tw.Event(Traced{Span: child, Event: SpanFinished{Name: "search", DurationNS: 987654321}})
	tw.Count("windows_evaluated", 678)
	tw.Count("mi.ksg_estimates", 12345)
	tw.Count("windows_evaluated", 2)
	return tw.Close()
}

// TestTraceWriterGolden checks that the writer renders exactly the
// committed trace.
func TestTraceWriterGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(traceGolden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", traceGolden, buf.Len())
		return
	}
	want, err := os.ReadFile(traceGolden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace differs from %s\n got: %s\nwant: %s", traceGolden, buf.Bytes(), want)
	}
}

// raceEnabled is set when the race detector is on (race_test.go).
var raceEnabled bool

// TestTraceWriterWarmAllocs bounds a warm writer's allocations per line at
// one: the line and its payload's encoding reuse the writer's buffers, the
// timestamp and IDs are appended in place, and what remains is PhaseEnd's
// payload boxed into an interface. The events are boxed before measuring,
// as a search boxes them before it hands them over. The final Counters line
// sorts a map and is not counted. The collector is paused so that a cleared
// encoder pool does not show as an allocation. Under the race detector
// sync.Pool drops items at random, so json.Encoder's pooled encode state is
// allocated again now and then, and the count means nothing there.
func TestTraceWriterWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random")
	}
	tw := NewTraceWriter(io.Discard)
	root := NewTrace(5, 1)
	child := root.Child("search")
	var (
		plain   Event = ClimbFinished{Pair: "<x>&y", Window: Window{Start: 3, End: 19, Delay: -2}, Score: 0.4375, Iterations: 7, Evaluations: 112}
		stamped Event = Traced{Span: child, Event: RestartStarted{Pair: "x/y", Restart: 1, ScanFrom: 40}}
	)
	lines := []struct {
		name string
		f    func()
	}{
		{"event", func() { tw.Event(plain) }},
		{"stamped event", func() { tw.Event(stamped) }},
		{"phase", func() { tw.PhaseEnd(PhaseClimb, time.Millisecond) }},
		{"stamped phase", func() { tw.SpanPhaseEnd(child, PhaseFinalize, time.Millisecond) }},
	}
	for _, l := range lines {
		l.f() // grows the buffers
	}
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	for _, l := range lines {
		if allocs := testing.AllocsPerRun(100, l.f); allocs > 1 {
			t.Errorf("%s: %.1f allocations per line, want ≤ 1", l.name, allocs)
		} else {
			t.Logf("%s: %.1f allocations per line", l.name, allocs)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
}
