package obs

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a Prometheus-style metric registry: named families of
// counters, gauges and histograms, optionally split by label values, with a
// text-exposition renderer (WritePrometheus) for a /metrics endpoint.
//
// It doubles as a Sink (+GaugeSink), so plugging it into an Observer fan-out
// turns the search's event/counter/phase stream into scrapeable series with
// no extra wiring:
//
//	search events  → tycos_search_events_total{kind="ClimbFinished"}
//	counters       → tycos_<name>_total (name sanitized)
//	phase timings  → tycos_search_phase_duration_seconds{phase="climb"}
//	gauges         → tycos_<name>
//
// Since it only counts events by kind, it also takes a kind's total at once
// (CountKind): a search observed by the bare registry, with no other sink
// beside it and no span to stamp, hands it one total per event kind instead
// of the event stream, which every other sink still receives.
//
// Snapshot reads the same aggregate back keyed the way the Sink received it,
// which is what tycosd's /statusz serves. Memory is bounded by the number of
// distinct names, kinds and phases, never by traffic.
//
// Hot-path behaviour: after a family/series exists, every update is a
// read-locked map lookup plus an atomic op — no allocation. Creating a
// series (first sight of a name or label value) takes the write lock once.
// WritePrometheus renders into one reused buffer, so a scrape's allocations
// do not grow with the number of series.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	// counters and gauges map each name emitted through the Sink interface
	// ("daemon.search_requests") to its series, resolved on first sight, so
	// warm emissions neither sanitize nor register again, and Snapshot can
	// key its totals by the emitted name.
	counters map[string]*Series
	gauges   map[string]*Series

	events *Vec // tycos_search_events_total{kind}
	phases *Vec // tycos_search_phase_duration_seconds{phase}
}

// metricKind is the Prometheus type of one family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one named metric with its label schema and series.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string

	mu     sync.RWMutex
	series map[string]*Series // joined label values → series
}

// Series is one (family, label values) time series: a counter, a gauge or a
// histogram, depending on the family's kind. Counter/gauge state is a single
// atomic; histograms embed a Histogram.
type Series struct {
	labels []string
	val    atomic.Int64
	hist   *Histogram
}

// Add increments a counter series.
func (s *Series) Add(delta int64) { s.val.Add(delta) }

// Inc increments a counter series by one.
func (s *Series) Inc() { s.val.Add(1) }

// Set sets a gauge series.
func (s *Series) Set(v int64) { s.val.Store(v) }

// Value returns the current counter/gauge value.
func (s *Series) Value() int64 { return s.val.Load() }

// Observe records one observation on a histogram series.
func (s *Series) Observe(v float64) { s.hist.Observe(v) }

// ObserveDuration records a duration in seconds on a histogram series.
func (s *Series) ObserveDuration(d time.Duration) { s.hist.ObserveDuration(d) }

// Hist exposes the underlying histogram of a histogram series.
func (s *Series) Hist() *Histogram { return s.hist }

// Vec is a handle on one family: With resolves (creating on first sight)
// the series for a tuple of label values. An unlabeled family is a Vec used
// with zero label values.
type Vec struct {
	fam *family
}

// labelSep joins label values into series keys; 0x1f (unit separator)
// cannot appear in sane label values, and even if it does the worst case is
// two tuples sharing a series, never a rendering error.
const labelSep = "\x1f"

// With returns the series for the given label values, creating it on first
// use. The value count must match the family's label schema.
func (v *Vec) With(values ...string) *Series {
	if len(values) != len(v.fam.labels) {
		panic(fmt.Sprintf("obs: metric %s expects %d label values, got %d",
			v.fam.name, len(v.fam.labels), len(values)))
	}
	key := ""
	if len(values) == 1 {
		key = values[0] // common case: no join allocation
	} else if len(values) > 1 {
		key = strings.Join(values, labelSep)
	}
	v.fam.mu.RLock()
	s, ok := v.fam.series[key]
	v.fam.mu.RUnlock()
	if ok {
		return s
	}
	v.fam.mu.Lock()
	defer v.fam.mu.Unlock()
	if s, ok := v.fam.series[key]; ok {
		return s
	}
	s = &Series{labels: append([]string(nil), values...)}
	if v.fam.kind == kindHistogram {
		s.hist = NewHistogram()
	}
	v.fam.series[key] = s
	return s
}

// NewRegistry returns a registry pre-wired with the search-event and
// search-phase families the Sink implementation feeds.
func NewRegistry() *Registry {
	r := &Registry{
		families: make(map[string]*family),
		counters: make(map[string]*Series),
		gauges:   make(map[string]*Series),
	}
	r.events = r.CounterVec("tycos_search_events_total",
		"Search events observed, by event kind.", "kind")
	r.phases = r.HistogramVec("tycos_search_phase_duration_seconds",
		"Wall-clock duration of search phases, by phase.", "phase")
	return r
}

// register creates (or returns the existing) family. Re-registering with a
// different kind or label schema panics — that is a programming error the
// first scrape would otherwise surface as a corrupt exposition.
func (r *Registry) register(name, help string, kind metricKind, labels ...string) *Vec {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered with a different type or label schema", name))
		}
		return &Vec{fam: f}
	}
	f := &family{
		name:   name,
		help:   help,
		kind:   kind,
		labels: append([]string(nil), labels...),
		series: make(map[string]*Series),
	}
	r.families[name] = f
	return &Vec{fam: f}
}

// Counter registers (or fetches) an unlabeled counter and returns its single
// series.
func (r *Registry) Counter(name, help string) *Series {
	return r.register(name, help, kindCounter).With()
}

// GaugeSeries registers (or fetches) an unlabeled gauge and returns its
// single series. (The name avoids the Gauge method, which is the GaugeSink
// implementation.)
func (r *Registry) GaugeSeries(name, help string) *Series {
	return r.register(name, help, kindGauge).With()
}

// Histogram registers (or fetches) an unlabeled histogram and returns its
// single series.
func (r *Registry) Histogram(name, help string) *Series {
	return r.register(name, help, kindHistogram).With()
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *Vec {
	return r.register(name, help, kindCounter, labels...)
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *Vec {
	return r.register(name, help, kindGauge, labels...)
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, labels ...string) *Vec {
	return r.register(name, help, kindHistogram, labels...)
}

// NewMetrics returns a new Registry.
//
// Deprecated: use NewRegistry. The registry is the one in-memory aggregator.
func NewMetrics() *Registry { return NewRegistry() }

// sanitizeName maps an arbitrary counter/gauge name onto the Prometheus
// metric-name alphabet [a-zA-Z0-9_]: dots and dashes become underscores.
func sanitizeName(name string) string {
	b := []byte(name)
	for i, c := range b {
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c >= '0' && c <= '9' && i > 0) {
			b[i] = '_'
		}
	}
	return string(b)
}

// Event implements Sink: one counter increment per event, keyed by kind.
// Traced wrappers delegate Kind, so stamped and plain events aggregate
// identically.
func (r *Registry) Event(e Event) { r.events.With(e.Kind()).Inc() }

// CountKind adds n events of one kind at once, exactly as n Event calls
// would. A search observed by the bare registry reports its events this
// way, one total per kind, instead of as a stream. A type that embeds a
// Registry and overrides Event inherits CountKind too, so searches skip its
// Event unless it overrides CountKind as well.
func (r *Registry) CountKind(kind string, n int64) { r.events.With(kind).Add(n) }

// Count implements Sink: dynamic counters surface as
// tycos_<sanitized name>_total.
func (r *Registry) Count(name string, delta int64) {
	r.emitted(r.counters, name, kindCounter).Add(delta)
}

// PhaseEnd implements Sink: phase durations land in the per-phase histogram.
func (r *Registry) PhaseEnd(p Phase, d time.Duration) {
	r.phases.With(string(p)).ObserveDuration(d)
}

// Gauge implements GaugeSink: levels surface as tycos_<sanitized name>.
func (r *Registry) Gauge(name string, value int64) {
	r.emitted(r.gauges, name, kindGauge).Set(value)
}

// emitted returns the series behind a counter or gauge name emitted through
// the Sink interface, registering its family on first sight.
func (r *Registry) emitted(byName map[string]*Series, name string, kind metricKind) *Series {
	r.mu.RLock()
	s, ok := byName[name]
	r.mu.RUnlock()
	if ok {
		return s
	}
	if kind == kindCounter {
		s = r.Counter("tycos_"+sanitizeName(name)+"_total",
			"Cumulative total of the "+name+" search counter.")
	} else {
		s = r.GaugeSeries("tycos_"+sanitizeName(name), "Current level of the "+name+" gauge.")
	}
	// A racing first sight resolves to the same series, so either store wins.
	r.mu.Lock()
	byName[name] = s
	r.mu.Unlock()
	return s
}

// Snapshot is a detached, point-in-time copy of what a Registry aggregated
// through its Sink interface. Families registered directly (the daemon's
// HTTP and queue instruments) are left out; /metrics serves those.
type Snapshot struct {
	// Events maps event kind → occurrences.
	Events map[string]int64
	// Counters maps emitted counter name → total. Names that sanitize to
	// the same Prometheus name share one series, and so one total.
	Counters map[string]int64
	// Gauges maps emitted gauge name → last level set.
	Gauges map[string]int64
	// Phases maps phase → its duration histogram in seconds, the resolution
	// /metrics serves.
	Phases map[Phase]HistogramSnapshot
}

// Snapshot returns a copy of the aggregate. Each value is read atomically,
// so a snapshot taken during emission is approximately — not
// transactionally — consistent; the registry keeps aggregating.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	s := Snapshot{Counters: values(r.counters), Gauges: values(r.gauges)}
	r.mu.RUnlock()
	// Both families have one label, so a series key is its label value.
	r.events.fam.mu.RLock()
	s.Events = values(r.events.fam.series)
	r.events.fam.mu.RUnlock()
	r.phases.fam.mu.RLock()
	s.Phases = make(map[Phase]HistogramSnapshot, len(r.phases.fam.series))
	for p, se := range r.phases.fam.series {
		s.Phases[Phase(p)] = se.hist.Snapshot()
	}
	r.phases.fam.mu.RUnlock()
	return s
}

// values copies the current value of each counter or gauge series; the
// caller holds the lock guarding byKey.
func values(byKey map[string]*Series) map[string]int64 {
	out := make(map[string]int64, len(byKey))
	for k, se := range byKey {
		out[k] = se.Value()
	}
	return out
}

// renderChunk is the size at which WritePrometheus hands its buffer to the
// writer.
const renderChunk = 4096

// leBounds are the histogram le label values the way Prometheus clients
// print them: each finite bucket's upper bound, then +Inf.
var leBounds = func() (out [HistogramBuckets + 1]string) {
	for i := 0; i < HistogramBuckets; i++ {
		out[i] = strconv.FormatFloat(HistogramUpper(i), 'g', -1, 64)
	}
	out[HistogramBuckets] = "+Inf"
	return out
}()

// keyedSeries is one series of a family with its key, the joined label
// values the renderer sorts by.
type keyedSeries struct {
	key    string
	series *Series
}

// WritePrometheus renders every family in text exposition format (version
// 0.0.4): families sorted by name, one HELP and TYPE line each, series
// sorted by label values, histograms as cumulative le-buckets plus _sum and
// _count. The output is what GET /metrics serves. Every line is appended
// to one buffer, handed to w whenever it passes renderChunk bytes, and one
// series list sized for the largest family serves every family, so a
// render's allocations do not grow with the number of series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	slices.SortFunc(fams, func(a, b *family) int { return strings.Compare(a.name, b.name) })
	most := 0
	for _, f := range fams {
		f.mu.RLock()
		most = max(most, len(f.series))
		f.mu.RUnlock()
	}
	list := make([]keyedSeries, 0, most)
	b := make([]byte, 0, 2*renderChunk)
	for _, f := range fams {
		f.mu.RLock()
		list = list[:0]
		for k, s := range f.series {
			list = append(list, keyedSeries{key: k, series: s})
		}
		f.mu.RUnlock()
		if len(list) == 0 {
			continue // a family with no series renders nothing, like client_golang
		}
		slices.SortFunc(list, func(a, b keyedSeries) int { return strings.Compare(a.key, b.key) })
		b = append(b, "# HELP "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, f.help...)
		b = append(b, "\n# TYPE "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, f.kind.String()...)
		b = append(b, '\n')
		for _, ks := range list {
			b = f.appendSeries(b, ks.series)
			if len(b) >= renderChunk {
				if _, err := w.Write(b); err != nil {
					return err
				}
				b = b[:0]
			}
		}
	}
	if len(b) == 0 {
		return nil
	}
	_, err := w.Write(b)
	return err
}

// appendSeries appends a series' sample lines: one for a counter or gauge,
// the cumulative buckets, _sum and _count for a histogram.
func (f *family) appendSeries(b []byte, s *Series) []byte {
	if f.kind != kindHistogram {
		b = appendSampleName(b, f.name, "", f.labels, s.labels, "")
		b = strconv.AppendInt(b, s.Value(), 10)
		return append(b, '\n')
	}
	snap := s.hist.Snapshot()
	cum := int64(0)
	for i := 0; i < HistogramBuckets; i++ {
		cum += snap.Buckets[i]
		b = appendSampleName(b, f.name, "_bucket", f.labels, s.labels, leBounds[i])
		b = strconv.AppendInt(b, cum, 10)
		b = append(b, '\n')
	}
	b = appendSampleName(b, f.name, "_bucket", f.labels, s.labels, leBounds[HistogramBuckets])
	b = strconv.AppendInt(b, snap.Count, 10)
	b = appendSampleName(append(b, '\n'), f.name, "_sum", f.labels, s.labels, "")
	b = strconv.AppendFloat(b, snap.Sum, 'g', -1, 64)
	b = appendSampleName(append(b, '\n'), f.name, "_count", f.labels, s.labels, "")
	b = strconv.AppendInt(b, snap.Count, 10)
	return append(b, '\n')
}

// appendSampleName appends a sample line up to its value: the name, the
// suffix and {k="v",...}, with an le pair (a histogram bound) last, then a
// space. An empty schema with no le bound appends no braces.
func appendSampleName(b []byte, name, suffix string, names, values []string, le string) []byte {
	b = append(b, name...)
	b = append(b, suffix...)
	if len(names) == 0 && le == "" {
		return append(b, ' ')
	}
	b = append(b, '{')
	for i, n := range names {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendLabel(b, n, values[i])
	}
	if le != "" {
		if len(names) > 0 {
			b = append(b, ',')
		}
		b = appendLabel(b, "le", le)
	}
	return append(b, "} "...)
}

// appendLabel appends name="value", the value escaped for the text
// exposition format.
func appendLabel(b []byte, name, value string) []byte {
	b = append(b, name...)
	b = append(b, `="`...)
	for i := 0; i < len(value); i++ {
		switch c := value[i]; c {
		case '\\':
			b = append(b, `\\`...)
		case '\n':
			b = append(b, `\n`...)
		case '"':
			b = append(b, `\"`...)
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}
