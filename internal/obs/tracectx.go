package obs

import (
	"context"
	"hash/fnv"
	"sync"
	"time"
)

// Request-scoped tracing.
//
// A SpanContext identifies one unit of work inside one request: the trace ID
// is shared by everything the request caused, span IDs name the individual
// units (HTTP handler, queue wait, the search itself), and parent links make
// the set a tree. IDs are derived deterministically — a daemon restarted
// with the same seed assigns the same trace ID to the same request sequence
// number, so chaos harnesses can compare traces across runs byte for byte.
//
// Stamping is a sink concern, not an event concern: the search keeps
// emitting its plain typed events, and WithSpan wraps the chosen Sink so
// every event passing through is wrapped in a Traced carrying the span.
// Sinks that understand spans (TraceWriter, SpanRecorder) surface them;
// sinks that don't see the same Kind() they always did. A nil sink stays
// nil through WithSpan, preserving the free no-op default.

// SpanContext locates one span inside one trace. The zero value is "not
// traced" — Valid reports false and stamping is skipped entirely.
type SpanContext struct {
	// TraceID is shared by every span of one request.
	TraceID uint64
	// SpanID identifies this span within the trace.
	SpanID uint64
	// Parent is the SpanID of the enclosing span (0 for the root).
	Parent uint64
}

// Valid reports whether the context identifies a real span.
func (sc SpanContext) Valid() bool { return sc.TraceID != 0 && sc.SpanID != 0 }

// Child derives the deterministic child span of sc for the named unit of
// work. Equal (parent, name) pairs yield equal children, so a replayed
// request reconstructs the identical span tree; qualify the name (e.g. with
// the pair) when one parent fans out into several same-kind children.
func (sc SpanContext) Child(name string) SpanContext {
	h := fnv.New64a()
	h.Write([]byte(name))
	return SpanContext{
		TraceID: sc.TraceID,
		SpanID:  nonzeroID(mix64(sc.SpanID ^ h.Sum64())),
		Parent:  sc.SpanID,
	}
}

// NewTrace derives the deterministic root span for the seq-th request of a
// process seeded with seed. Distinct (seed, seq) pairs give independent
// trace IDs (SplitMix64 mixing), and the root span ID is itself derived from
// the trace ID so the whole tree is a pure function of (seed, seq).
func NewTrace(seed int64, seq uint64) SpanContext {
	id := nonzeroID(mix64(mix64(uint64(seed)) ^ seq))
	return SpanContext{TraceID: id, SpanID: nonzeroID(mix64(id))}
}

// mix64 is the SplitMix64 finalizer — the same bijective mixer the search
// uses for per-restart seed derivation.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// nonzeroID keeps derived IDs out of the zero value's "not traced" meaning.
func nonzeroID(id uint64) uint64 {
	if id == 0 {
		return 1
	}
	return id
}

// Sampler is a deterministic head sampler: the decision is a pure function
// of the trace ID, so every participant of a trace (and every replay of the
// request) agrees on it without coordination.
type Sampler struct {
	// bits is the acceptance threshold on the top 53 bits of the trace ID,
	// in [0, 1<<53]; using the float-exact 53-bit range keeps the
	// ratio→threshold conversion free of uint64-overflow edge cases.
	bits uint64
}

// NewSampler returns a sampler accepting approximately ratio of all trace
// IDs: ≤0 samples nothing, ≥1 samples everything.
func NewSampler(ratio float64) Sampler {
	switch {
	case ratio <= 0:
		return Sampler{bits: 0}
	case ratio >= 1:
		return Sampler{bits: 1 << 53}
	default:
		return Sampler{bits: uint64(ratio * (1 << 53))}
	}
}

// Sampled reports the (deterministic) sampling decision for a trace ID.
func (s Sampler) Sampled(traceID uint64) bool { return traceID>>11 < s.bits }

// ctxKey carries a SpanContext through a context.Context.
type ctxKey struct{}

// ContextWithSpan returns a context carrying sc; the search reads it in
// SearchContext and stamps its observations with a derived child span.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, ctxKey{}, sc)
}

// SpanFromContext returns the span carried by ctx, if any.
func SpanFromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(ctxKey{}).(SpanContext)
	return sc, ok && sc.Valid()
}

// Traced wraps an event with the span that caused it. Kind delegates to the
// wrapped event, so kind-keyed sinks (Registry) aggregate traced and
// untraced emissions identically; span-aware sinks type-assert for the
// wrapper. Use Base to unwrap before type-switching on concrete event types.
type Traced struct {
	Span  SpanContext
	Event Event
}

// Kind implements Event by delegating to the wrapped event.
func (t Traced) Kind() string { return t.Event.Kind() }

// Base returns the innermost event under any Traced wrapping; type switches
// over concrete event types should run on Base(e), not e.
func Base(e Event) Event {
	for {
		t, ok := e.(Traced)
		if !ok {
			return e
		}
		e = t.Event
	}
}

// SpanFinished marks the completion of one named span — the handler, the
// queue wait, the search. It is always emitted through a span-stamping sink,
// so the trace line carries which span finished; Duration is the span's
// wall-clock length.
type SpanFinished struct {
	Name       string `json:"name"`
	DurationNS int64  `json:"duration_ns"`
}

// Kind implements Event.
func (SpanFinished) Kind() string { return "SpanFinished" }

// PhaseFinished is the event form of a PhaseEnd observation; span-aware
// sinks use it to keep phase timings inside the span tree (the base Sink
// interface keeps its dedicated PhaseEnd method unchanged).
type PhaseFinished struct {
	Phase      Phase `json:"phase"`
	DurationNS int64 `json:"duration_ns"`
}

// Kind implements Event.
func (PhaseFinished) Kind() string { return "PhaseFinished" }

// SpanPhaseSink is the optional extension a Sink may implement to receive
// phase timings with the span that produced them; sinks without it get the
// plain PhaseEnd. Separate interface, same rationale as GaugeSink.
type SpanPhaseSink interface {
	SpanPhaseEnd(sc SpanContext, p Phase, d time.Duration)
}

// phaseEndSpan delivers one phase timing to s, preferring the span-aware
// form when both the span and the sink support it.
func phaseEndSpan(s Sink, sc SpanContext, p Phase, d time.Duration) {
	if sc.Valid() {
		if sp, ok := s.(SpanPhaseSink); ok {
			sp.SpanPhaseEnd(sc, p, d)
			return
		}
	}
	s.PhaseEnd(p, d)
}

// SpanPhaseEnd implements SpanPhaseSink for multi by forwarding to every
// member, downgrading to PhaseEnd for members without span support.
func (m multi) SpanPhaseEnd(sc SpanContext, p Phase, d time.Duration) {
	for _, s := range m {
		phaseEndSpan(s, sc, p, d)
	}
}

// spanSink stamps everything flowing through it with one SpanContext.
type spanSink struct {
	sc   SpanContext
	next Sink
}

// WithSpan returns a sink that stamps every event and phase timing with sc
// before forwarding to next. A nil next or invalid span returns next
// unchanged, so the no-op default stays free and double-wrapping cannot
// detach a trace. Events already stamped (Traced) pass through untouched —
// the innermost span wins, since it is the closest to the work.
func WithSpan(next Sink, sc SpanContext) Sink {
	if next == nil || !sc.Valid() {
		return next
	}
	return spanSink{sc: sc, next: next}
}

// Event implements Sink.
func (s spanSink) Event(e Event) {
	if _, ok := e.(Traced); ok {
		s.next.Event(e)
		return
	}
	s.next.Event(Traced{Span: s.sc, Event: e})
}

// Count implements Sink; counters are process totals, not per-span data.
func (s spanSink) Count(name string, delta int64) { s.next.Count(name, delta) }

// PhaseEnd implements Sink.
func (s spanSink) PhaseEnd(p Phase, d time.Duration) { phaseEndSpan(s.next, s.sc, p, d) }

// Gauge implements GaugeSink by forwarding; levels are process state.
func (s spanSink) Gauge(name string, value int64) { SetGauge(s.next, name, value) }

// SpanEvent is one observation captured by a SpanRecorder: the (possibly
// zero) span it belongs to and the plain event.
type SpanEvent struct {
	Span  SpanContext
	Event Event
}

// SpanRecorder is a bounded in-memory Sink that keeps every stamped event of
// one request so a slow-search logger can reconstruct the full span tree
// after the fact. Recording past the bound drops events (counted) instead of
// growing; counters are ignored — they are process totals, not request data.
type SpanRecorder struct {
	mu      sync.Mutex
	limit   int
	events  []SpanEvent
	dropped int
}

// NewSpanRecorder returns a recorder keeping at most limit events
// (limit ≤ 0 selects 4096).
func NewSpanRecorder(limit int) *SpanRecorder {
	if limit <= 0 {
		limit = 4096
	}
	return &SpanRecorder{limit: limit}
}

// record appends one captured observation under the bound.
func (r *SpanRecorder) record(sc SpanContext, e Event) {
	r.mu.Lock()
	if len(r.events) < r.limit {
		r.events = append(r.events, SpanEvent{Span: sc, Event: e})
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// Event implements Sink, unwrapping Traced stamps into the span column.
func (r *SpanRecorder) Event(e Event) {
	var sc SpanContext
	if t, ok := e.(Traced); ok {
		sc, e = t.Span, Base(t.Event)
	}
	r.record(sc, e)
}

// Count implements Sink (ignored; counters are not request-scoped).
func (r *SpanRecorder) Count(name string, delta int64) {}

// PhaseEnd implements Sink; unstamped phase timings are captured span-less.
func (r *SpanRecorder) PhaseEnd(p Phase, d time.Duration) {
	r.record(SpanContext{}, PhaseFinished{Phase: p, DurationNS: int64(d)})
}

// SpanPhaseEnd implements SpanPhaseSink.
func (r *SpanRecorder) SpanPhaseEnd(sc SpanContext, p Phase, d time.Duration) {
	r.record(sc, PhaseFinished{Phase: p, DurationNS: int64(d)})
}

// Events returns the captured observations in emission order plus how many
// were dropped past the bound.
func (r *SpanRecorder) Events() ([]SpanEvent, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanEvent, len(r.events))
	copy(out, r.events)
	return out, r.dropped
}
