package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"time"
)

// TraceWriter is a Sink that writes a JSONL event trace: one JSON object per
// line, in emission order. The schema is
//
//	{"ts":"<RFC3339Nano UTC>","event":"<kind>","data":{...}}
//
// where <kind> is the Event.Kind() of the payload ("RestartStarted",
// "ClimbFinished", …), "PhaseFinished" for phase timings with data
// {"phase":"climb","duration_ns":123}, or — as the final line written by
// Close — "Counters" with data {"<name>":<total>,...} holding every counter
// accumulated over the trace's lifetime, keys sorted.
//
// Events arriving stamped (wrapped in Traced, or via SpanPhaseEnd) add hex
// trace/span/parent fields to the line:
//
//	{"ts":...,"event":"ClimbFinished","trace":"9ab...","span":"41c...","parent":"7fe...","data":{...}}
//
// so every line of one request can be grepped by its trace ID.
//
// Writes are buffered; call Close (or Flush) to drain them. The first write
// or marshal error is sticky and returned by Flush/Close; later lines are
// dropped rather than interleaved with a torn line.
type TraceWriter struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	counts map[string]int64
	err    error
	now    func() time.Time // test hook; defaults to time.Now
}

// NewTraceWriter returns a TraceWriter emitting to w. The caller keeps
// ownership of w: Close flushes the trace but does not close w.
func NewTraceWriter(w io.Writer) *TraceWriter {
	return &TraceWriter{
		bw:     bufio.NewWriter(w),
		counts: make(map[string]int64),
		now:    time.Now,
	}
}

// traceLine is the on-disk shape of one trace line. Trace/span/parent are
// lower-case hex IDs, omitted for unstamped lines so untraced runs keep the
// original schema byte for byte.
type traceLine struct {
	TS     string `json:"ts"`
	Event  string `json:"event"`
	Trace  string `json:"trace,omitempty"`
	Span   string `json:"span,omitempty"`
	Parent string `json:"parent,omitempty"`
	Data   any    `json:"data,omitempty"`
}

// Event implements Sink. A Traced event is unwrapped: the base event becomes
// the line's kind and data, the span its trace/span/parent columns.
func (t *TraceWriter) Event(e Event) {
	var sc SpanContext
	if tr, ok := e.(Traced); ok {
		sc, e = tr.Span, Base(tr.Event)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.writeSpan(e.Kind(), sc, e)
}

// phaseData is the payload of a "PhaseFinished" line.
type phaseData struct {
	Phase      string `json:"phase"`
	DurationNS int64  `json:"duration_ns"`
}

// PhaseEnd implements Sink.
func (t *TraceWriter) PhaseEnd(p Phase, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.write("PhaseFinished", phaseData{Phase: string(p), DurationNS: int64(d)})
}

// SpanPhaseEnd implements SpanPhaseSink: the phase timing line carries the
// span that produced it.
func (t *TraceWriter) SpanPhaseEnd(sc SpanContext, p Phase, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.writeSpan("PhaseFinished", sc, phaseData{Phase: string(p), DurationNS: int64(d)})
}

// Count implements Sink. Counter deltas are accumulated, not written per
// call; Close emits the totals as the trace's final "Counters" line.
func (t *TraceWriter) Count(name string, delta int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[name] += delta
}

// write appends one unstamped line; the caller holds t.mu.
func (t *TraceWriter) write(kind string, data any) {
	t.writeSpan(kind, SpanContext{}, data)
}

// writeSpan appends one line, stamping trace/span/parent when sc is valid;
// the caller holds t.mu.
func (t *TraceWriter) writeSpan(kind string, sc SpanContext, data any) {
	if t.err != nil {
		return
	}
	line := traceLine{
		TS:    t.now().UTC().Format(time.RFC3339Nano),
		Event: kind,
		Data:  data,
	}
	if sc.Valid() {
		line.Trace = strconv.FormatUint(sc.TraceID, 16)
		line.Span = strconv.FormatUint(sc.SpanID, 16)
		if sc.Parent != 0 {
			line.Parent = strconv.FormatUint(sc.Parent, 16)
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		t.err = err
		return
	}
	if _, err := t.bw.Write(append(b, '\n')); err != nil {
		t.err = err
	}
}

// Flush drains buffered lines to the underlying writer and returns the
// sticky error, if any.
func (t *TraceWriter) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.flushLocked()
}

func (t *TraceWriter) flushLocked() error {
	if err := t.bw.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	return t.err
}

// Close writes the accumulated counter totals as a final "Counters" line
// (keys sorted, omitted when no counter was touched), flushes, and returns
// the sticky error. It does not close the underlying writer.
func (t *TraceWriter) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.counts) > 0 {
		// json.Marshal sorts map keys; t.mu keeps Count out meanwhile.
		t.write("Counters", t.counts)
		t.counts = make(map[string]int64)
	}
	return t.flushLocked()
}
