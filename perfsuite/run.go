package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	tycos "tycos"
)

// runConfig carries the command-line settings into a workload.
type runConfig struct {
	seed    int64
	measure time.Duration
	trace   bool
	smoke   bool
	// tmp is the scratch directory for journals and the traced run's spans.
	tmp string
	// tr records the traced run's spans; nil when untraced.
	tr *tracer
	// session marks a short traced run of a service workload inside another
	// workload's traced run: one set-up, no probes of its own.
	session bool
}

// reps returns how many set-ups a run makes.
func (c runConfig) reps() int {
	if c.session {
		return 1
	}
	return setupReps
}

// repsFor returns n repetitions, or a tenth of them (at least one) in smoke
// runs.
func (c runConfig) repsFor(n int) int {
	if c.smoke {
		return max(n/10, 1)
	}
	return n
}

// minOps returns the fewest operations a run times; a session reports no
// end-to-end percentiles, so its measuring time alone bounds it.
func (c runConfig) minOps() int {
	if c.session {
		return 1
	}
	return minOps
}

const (
	// setupReps is how many times each workload sets up; setup_s is the
	// median, and the last repetition's state is what the run measures.
	setupReps = 5
	// minOps is the fewest timed operations a run makes, whatever its
	// measuring time: 100 operations leave exactly 10 beyond p90.
	minOps = 100
	// probeReps is how many times a traced run repeats each variant of a
	// side-by-side probe; the probe compares the variants' medians.
	probeReps = 5
	// sessionTime is how long a traced run of another workload drives the
	// discovery or daemon layer when its own operations do not reach it.
	sessionTime = 2 * time.Second
)

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	failures          []string

	setup []time.Duration
	lat   []float64 // per-operation latency, ms
	// work items (searches, candidates, requests) completed over busy time.
	work float64
	busy time.Duration
	// allocBytes is the heap allocated by the attempted operations.
	allocBytes uint64
	recall     float64
	digest     string

	// probePair and probeOpts are the workload's representative search,
	// which the traced run repeats under different settings.
	probePair tycos.Pair
	probeOpts tycos.Options

	layer map[string]float64
}

func newOutcome() *outcome { return &outcome{layer: make(map[string]float64)} }

// fail counts one failed operation and keeps the first few reasons.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// closedLoop runs op back to back for one client, each operation starting
// when the previous one returned, until the measuring time has passed and at
// least cfg.minOps() operations ran. It records every operation's latency
// and outcome, the work done and the bytes allocated meanwhile.
func closedLoop(cfg runConfig, o *outcome, workPerOp float64, op func(i int) error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < cfg.minOps() || time.Since(start) < cfg.measure; i++ {
		t0 := time.Now()
		err := op(i)
		o.lat = append(o.lat, ms(time.Since(t0)))
		o.attempted++
		if err != nil {
			o.fail("op %d: %v", i, err)
		}
	}
	o.busy = time.Since(start)
	runtime.ReadMemStats(&m1)
	o.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	o.work = workPerOp * float64(o.attempted-o.failed)
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndValues derives the end-to-end metrics from an untraced run.
func (o *outcome) endToEndValues() (map[string]float64, error) {
	p50, err := percentile(o.lat, 50)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(o.lat, 90)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	setup := make([]float64, len(o.setup))
	for i, d := range o.setup {
		setup[i] = d.Seconds()
	}
	_, setupMedian, _ := quartiles(setup)
	return map[string]float64{
		"setup_s":          setupMedian,
		"lat_p50_ms":       p50,
		"lat_p90_ms":       p90,
		"throughput_per_s": ratio(o.work, o.busy.Seconds()),
		"peak_rss_mb":      rss,
		"alloc_mb_per_op":  ratio(float64(o.allocBytes), float64(o.attempted)) / (1 << 20),
		"recall":           o.recall,
	}, nil
}

// metrics returns the run's reported metrics: every end-to-end metric when
// untraced, every per-layer metric when traced.
func (o *outcome) metrics(trace bool) (map[string]metricValue, error) {
	specs, vals := endToEnd, o.layer
	if trace {
		specs = perLayer
	} else {
		var err error
		if vals, err = o.endToEndValues(); err != nil {
			return nil, err
		}
	}
	out := make(map[string]metricValue, len(specs))
	for _, m := range specs {
		v, ok := vals[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return out, nil
}

// resultLine is the last line a workload run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}
