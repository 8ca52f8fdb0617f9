package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"tycos/internal/obs"
)

// span is one timed interval of a traced run, written as one JSONL line.
// Spans of one operation share Trace; Parent is 0 on the operation's root.
type span struct {
	Trace  uint64 `json:"trace"`
	Span   uint64 `json:"span"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps a traced run's spans in memory until the run ends. The spans
// are recorded by the harness around its calls into each layer. A nil
// *tracer records nothing, so untraced runs pass nil through the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its id; parent 0 starts a new trace.
func (t *tracer) add(parent uint64, name string, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := uint64(len(t.spans) + 1)
	trace := id
	if parent != 0 {
		trace = t.spans[parent-1].Trace
	}
	t.spans = append(t.spans, span{
		Trace: trace, Span: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	return id
}

// coverage returns, for every span with the given name, the share of its
// duration covered by its children; a span's self time is the rest.
func (t *tracer) coverage(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[uint64][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name != name || s.End <= s.Start {
			continue
		}
		iv := children[s.Span]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered int64
		cur := s.Start
		for _, c := range iv {
			lo, hi := max(c[0], cur), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out = append(out, float64(covered)/float64(s.End-s.Start))
	}
	return out
}

// write stores the spans as JSONL at path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// phaseEnd is one PhaseEnd observation and the wall time it arrived.
type phaseEnd struct {
	phase obs.Phase
	d     time.Duration
	at    time.Time
}

// coreProbe is the obs.Sink traced runs plug into the search's Observer: it
// totals the search counters and climb iterations and keeps every phase
// timing. Safe for concurrent use, as the daemon shares it across workers.
type coreProbe struct {
	mu     sync.Mutex
	counts map[string]int64
	iters  int64
	phases []phaseEnd
}

func newCoreProbe() *coreProbe { return &coreProbe{counts: make(map[string]int64)} }

// Event implements obs.Sink.
func (p *coreProbe) Event(e obs.Event) {
	if cf, ok := obs.Base(e).(obs.ClimbFinished); ok {
		p.mu.Lock()
		p.iters += int64(cf.Iterations)
		p.mu.Unlock()
	}
}

// Count implements obs.Sink.
func (p *coreProbe) Count(name string, delta int64) {
	p.mu.Lock()
	p.counts[name] += delta
	p.mu.Unlock()
}

// PhaseEnd implements obs.Sink.
func (p *coreProbe) PhaseEnd(ph obs.Phase, d time.Duration) {
	now := time.Now()
	p.mu.Lock()
	p.phases = append(p.phases, phaseEnd{phase: ph, d: d, at: now})
	p.mu.Unlock()
}

// mark returns how many phase timings have arrived, for since.
func (p *coreProbe) mark() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.phases)
}

// since returns the phase timings that arrived after mark m.
func (p *coreProbe) since(m int) []phaseEnd {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]phaseEnd(nil), p.phases[m:]...)
}

// layerValues converts the totals into per-search core and lahc metrics.
// Every search ends exactly one climb phase, so climbs count searches.
func (p *coreProbe) layerValues(out map[string]float64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	sums := make(map[obs.Phase]time.Duration)
	searches := 0
	for _, pe := range p.phases {
		sums[pe.phase] += pe.d
		if pe.phase == obs.PhaseClimb {
			searches++
		}
	}
	if searches == 0 {
		return fmt.Errorf("no traced search reported a climb phase")
	}
	n := float64(searches)
	per := func(counter string) float64 { return float64(p.counts[counter]) / n }
	out["core.windows_evaluated"] = per("windows_evaluated")
	out["core.restarts"] = per("restarts")
	out["core.mi_batch"] = per("mi_batch")
	out["core.mi_incremental"] = per("mi_incremental")
	out["core.noise.pruned_directions"] = per("pruned_directions")
	out["core.noise.blocks_skipped"] = per("noise_blocks")
	out["lahc.iterations"] = float64(p.iters) / n
	out["core.phase.validate_ms"] = ms(sums[obs.PhaseValidate]) / n
	out["core.phase.climb_ms"] = ms(sums[obs.PhaseClimb]) / n
	out["core.phase.finalize_ms"] = ms(sums[obs.PhaseFinalize]) / n
	out["core.climb_ns_per_window"] = ratio(float64(sums[obs.PhaseClimb]), float64(p.counts["windows_evaluated"]))
	return nil
}

// traceSearch records a search span and its phases as children: a phase
// ends when its timing arrived and starts its duration earlier.
func traceSearch(tr *tracer, parent uint64, start, end time.Time, phases []phaseEnd) {
	if tr == nil {
		return
	}
	id := tr.add(parent, "search", start, end)
	for _, pe := range phases {
		tr.add(id, "phase."+string(pe.phase), pe.at.Add(-pe.d), pe.at)
	}
}
