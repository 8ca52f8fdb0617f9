package obs

import (
	"bufio"
	"bytes"
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

	// line is the line being built and data the payload's encoding, which
	// enc writes; both are reused, so a warm line allocates nothing of its
	// own.
	line []byte
	data bytes.Buffer
	enc  *json.Encoder
}

// NewTraceWriter returns a TraceWriter emitting to w. The caller keeps
// ownership of w: Close flushes the trace but does not close w.
func NewTraceWriter(w io.Writer) *TraceWriter {
	t := &TraceWriter{
		bw:     bufio.NewWriter(w),
		counts: make(map[string]int64),
		now:    time.Now,
	}
	t.enc = json.NewEncoder(&t.data)
	return t
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
// the caller holds t.mu. The line is built in t.line with the bytes
// json.Marshal of a struct of the schema's fields would give: the fields in
// schema order, lower-case hex IDs, trace/span/parent omitted when unstamped
// and parent when zero, and data as encoding/json writes it (HTML-escaped,
// as Marshal does). TestTraceWriterGolden pins those bytes.
func (t *TraceWriter) writeSpan(kind string, sc SpanContext, data any) {
	if t.err != nil {
		return
	}
	b := append(t.line[:0], `{"ts":"`...)
	b = t.now().UTC().AppendFormat(b, time.RFC3339Nano)
	b = append(b, `","event":`...)
	b = appendJSONString(b, kind)
	if sc.Valid() {
		b = append(b, `,"trace":"`...)
		b = strconv.AppendUint(b, sc.TraceID, 16)
		b = append(b, `","span":"`...)
		b = strconv.AppendUint(b, sc.SpanID, 16)
		if sc.Parent != 0 {
			b = append(b, `","parent":"`...)
			b = strconv.AppendUint(b, sc.Parent, 16)
		}
		b = append(b, '"')
	}
	if data != nil {
		t.data.Reset()
		if err := t.enc.Encode(data); err != nil {
			t.err = err
			return
		}
		// Encode ends the value with a newline, which the line does not
		// carry inside its braces.
		b = append(b, `,"data":`...)
		b = append(b, bytes.TrimSuffix(t.data.Bytes(), []byte{'\n'})...)
	}
	b = append(b, "}\n"...)
	t.line = b
	if _, err := t.bw.Write(b); err != nil {
		t.err = err
	}
}

// appendJSONString appends s as a JSON string. Event kinds are identifiers,
// which need no escaping; any other string takes encoding/json's escaping.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
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
