// Command tycosbench measures the MI hot path — per-estimate cost and
// allocation behaviour of the KSG batch and incremental estimators, plus an
// end-to-end search per variant — and writes the results as JSON in the same
// shape as BENCH_RESTART_WORKERS.json, so regressions diff as one line per
// workload.
//
// Usage:
//
//	tycosbench [-quick] [-out BENCH_HOTPATH.json]
//	tycosbench -obs [-out BENCH_OBS.json]
//	tycosbench -discovery [-quick] [-out BENCH_DISCOVERY.json]
//
// -quick trims the measurement time for CI smoke runs; the checked-in
// baseline is produced without it. -obs switches to the observer-overhead
// suite: one end-to-end search measured under a nil sink, the registry
// aggregator (tycos.NewMetrics), a discarded JSONL trace, and a trace with span stamping — the
// numbers behind the README's "observability is ≤ a few percent" claim,
// written to BENCH_OBS.json. -discovery measures the anchor→fleet pipeline
// over a 200-candidate fleet, screened against unscreened, written to
// BENCH_DISCOVERY.json — the numbers behind the README's screen-then-confirm
// claim.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	tycos "tycos"
	"tycos/internal/mi"
	"tycos/internal/synth"
)

// report mirrors the shape of BENCH_RESTART_WORKERS.json.
type report struct {
	Benchmark   string   `json:"benchmark"`
	Description string   `json:"description"`
	Date        string   `json:"date"`
	Runner      runner   `json:"runner"`
	Benchtime   string   `json:"benchtime"`
	Results     []result `json:"results"`
	Reproduce   string   `json:"reproduce"`
}

type runner struct {
	CPU        string `json:"cpu"`
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Note       string `json:"note"`
}

type result struct {
	Workload    string  `json:"workload"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
	Note        string  `json:"note,omitempty"`
	SpeedupVsB  float64 `json:"speedup_vs_baseline,omitempty"`
}

// baselines are the pre-optimisation measurements (captured on the same
// single-core Xeon runner before the scratch-reuse work landed); the emitted
// speedup_vs_baseline column contextualises new runs against them.
var baselines = map[string]int64{
	"ksg-estimate/kdtree": 1275910,
	"ksg-estimate/brute":  3035737,
	"incremental-slide":   62536,
	"search/TYCOS_L":      366422785,
	"search/TYCOS_LMN":    92275012,
	"ksg-window/m_32":     27031,
	"ksg-window/m_128":    167175,
	"ksg-window/m_512":    1162331,
}

func main() {
	var (
		quick    = flag.Bool("quick", false, "smoke run: only the per-estimate and slide workloads (with -discovery: a 40-candidate fleet)")
		out      = flag.String("out", "", "output file (default BENCH_HOTPATH.json, BENCH_OBS.json with -obs, BENCH_DISCOVERY.json with -discovery)")
		obsMode  = flag.Bool("obs", false, "measure observer overhead (nil sink vs registry vs trace vs trace+spans) instead of the MI hot path")
		discMode = flag.Bool("discovery", false, "measure the anchor→fleet discovery pipeline, screened vs unscreened")
	)
	flag.Parse()
	if *out == "" {
		switch {
		case *obsMode:
			*out = "BENCH_OBS.json"
		case *discMode:
			*out = "BENCH_DISCOVERY.json"
		default:
			*out = "BENCH_HOTPATH.json"
		}
	}
	if *obsMode {
		runObs(*out)
		return
	}
	if *discMode {
		runDiscovery(*out, *quick)
		return
	}

	rep := report{
		Benchmark: "tycosbench (MI hot path)",
		Description: "Per-estimate KSG cost by backend (m=500, gaussian rho=0.6, k=4), " +
			"steady-state incremental slide (w=500 over n=4000), per-window estimation at search sizes, " +
			"and end-to-end Search per variant (synth.CorrelatedAR n=1200, SMin=10 SMax=150 TDMax=10, sigma=0.3, seed=1). " +
			"allocs_per_op on the warm estimator paths is the tentpole guarantee: 0 for kdtree/brute Estimate and the incremental slide.",
		Date: time.Now().Format("2006-01-02"),
		Runner: runner{
			CPU:        "see go test -bench output on this host",
			Cores:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Note:       "search workloads include trajectory work (windows evaluated), not just per-estimate cost",
		},
		Benchtime: "1s (testing.Benchmark default)",
		Reproduce: "go run ./cmd/tycosbench -out BENCH_HOTPATH.json (per-workload equivalents: " +
			"go test -bench BenchmarkKSGEstimate ./internal/mi; go test -bench 'KSGWindow|Fig9Variants' .)",
	}

	add := func(name string, r testing.BenchmarkResult, note string) {
		res := result{
			Workload:    name,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
			Note:        note,
		}
		if base, ok := baselines[name]; ok && r.NsPerOp() > 0 {
			res.SpeedupVsB = float64(base) / float64(r.NsPerOp())
		}
		rep.Results = append(rep.Results, res)
		fmt.Fprintf(os.Stderr, "%-28s %12d ns/op %8d B/op %6d allocs/op\n",
			name, r.NsPerOp(), r.AllocedBytesPerOp(), r.AllocsPerOp())
	}
	bench := func(f func(b *testing.B)) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			f(b)
		})
	}

	// --- Per-estimate KSG cost by backend (warm estimator). ---
	rng := rand.New(rand.NewSource(1))
	m := 500
	xs := make([]float64, m)
	ys := make([]float64, m)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = 0.6*xs[i] + 0.8*rng.NormFloat64()
	}
	for _, backend := range []mi.Backend{mi.BackendKDTree, mi.BackendBrute} {
		est := mi.NewKSG(4, backend)
		if _, err := est.Estimate(xs, ys); err != nil {
			fatal(err)
		}
		r := bench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := est.Estimate(xs, ys); err != nil {
					b.Fatal(err)
				}
			}
		})
		add("ksg-estimate/"+backend.String(), r, "warm estimator, m=500")
	}

	// --- Steady-state incremental slide. ---
	n := 4000
	sx := make([]float64, n)
	sy := make([]float64, n)
	srng := rand.New(rand.NewSource(4))
	for i := range sx {
		sx[i] = srng.NormFloat64()
		sy[i] = 0.6*sx[i] + 0.4*srng.NormFloat64()
	}
	w := 500
	inc := mi.NewIncremental(4, 0.3)
	for i := 0; i < w; i++ {
		inc.Insert(i, sx[i], sy[i])
	}
	pos := 0
	r := bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if pos+w+1 >= n {
				ids := make([]int, w)
				for j := range ids {
					ids[j] = j
				}
				inc.Reload(ids, sx[:w], sy[:w])
				pos = 0
			}
			inc.Remove(pos)
			inc.Insert(pos+w, sx[pos+w], sy[pos+w])
			if _, err := inc.MI(); err != nil {
				b.Fatal(err)
			}
			pos++
		}
	})
	add("incremental-slide", r, "remove+insert+MI, w=500")

	// --- Per-window estimation at the sizes the search visits. ---
	if !*quick {
		runFull(bench, add)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d workloads)\n", *out, len(rep.Results))
}

// runFull runs the cold-path and end-to-end workloads skipped by -quick.
func runFull(bench func(func(b *testing.B)) testing.BenchmarkResult, add func(string, testing.BenchmarkResult, string)) {
	comp, err := synth.CorrelatedAR(4096, 1, 512, 0, 1)
	if err != nil {
		fatal(err)
	}
	for _, wm := range []int{32, 128, 512} {
		wx := comp.Pair.X.Values[:wm]
		wy := comp.Pair.Y.Values[:wm]
		r := bench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tycos.EstimateMI(wx, wy, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
		add(fmt.Sprintf("ksg-window/m_%d", wm), r, "fresh estimator per call (cold-path cost)")
	}

	// --- End-to-end search per variant. ---
	scomp, err := synth.CorrelatedAR(1200, 2, 100, 10, 1)
	if err != nil {
		fatal(err)
	}
	for _, v := range []tycos.Variant{tycos.VariantL, tycos.VariantLMN} {
		opts := tycos.Options{
			SMin: 10, SMax: 150, TDMax: 10, Sigma: 0.3,
			Normalization: tycos.NormMaxEntropy,
			Variant:       v, Seed: 1,
		}
		res, err := tycos.Search(scomp.Pair, opts)
		if err != nil {
			fatal(err)
		}
		note := fmt.Sprintf("windows_evaluated=%d", res.Stats.WindowsEvaluated)
		r := bench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tycos.Search(scomp.Pair, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		add("search/"+v.String(), r, note)
	}
}

// runObs measures the observer-overhead suite: the same end-to-end search
// under increasingly heavy observers. The nil-sink row is the contract —
// observability disabled must cost nothing — and each later row prices one
// step up the telemetry ladder. overhead_vs_nil is computed from this run's
// own nil row, so the column is meaningful on any machine.
func runObs(out string) {
	rep := report{
		Benchmark: "tycosbench -obs (observer overhead)",
		Description: "End-to-end Search (synth.CorrelatedAR n=1200, SMin=10 SMax=150 TDMax=10, sigma=0.3, " +
			"variant=LMN, seed=1) under: nil sink (the free default), the registry aggregator that " +
			"tycos.NewMetrics returns, a JSONL TraceWriter to io.Discard, and the same TraceWriter with a " +
			"span in the context so every event is trace-stamped. note carries overhead vs the nil row.",
		Date: time.Now().Format("2006-01-02"),
		Runner: runner{
			CPU:        "see go test -bench output on this host",
			Cores:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Note:       "all rows run the identical search; only the observer differs",
		},
		Benchtime: "1s (testing.Benchmark default)",
		Reproduce: "go run ./cmd/tycosbench -obs -out BENCH_OBS.json (per-workload equivalent: " +
			"go test -bench BenchmarkSearchObserver ./internal/core)",
	}

	scomp, err := synth.CorrelatedAR(1200, 2, 100, 10, 1)
	if err != nil {
		fatal(err)
	}
	opts := tycos.Options{
		SMin: 10, SMax: 150, TDMax: 10, Sigma: 0.3,
		Normalization: tycos.NormMaxEntropy,
		Variant:       tycos.VariantLMN, Seed: 1,
	}

	type mode struct {
		name string
		sink func() tycos.Observer
		span bool
	}
	modes := []mode{
		{"search-observer/nil", func() tycos.Observer { return nil }, false},
		{"search-observer/metrics", func() tycos.Observer { return tycos.NewMetrics() }, false},
		{"search-observer/trace-discard", func() tycos.Observer { return tycos.NewTraceWriter(io.Discard) }, false},
		{"search-observer/trace-span", func() tycos.Observer { return tycos.NewTraceWriter(io.Discard) }, true},
	}
	var nilNs int64
	for _, m := range modes {
		o := opts
		o.Observer = m.sink()
		ctx := context.Background()
		if m.span {
			ctx = tycos.ContextWithSpan(ctx, tycos.NewTrace(1, 1))
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tycos.SearchContext(ctx, scomp.Pair, o); err != nil {
					b.Fatal(err)
				}
			}
		})
		note := "baseline (observability off)"
		if nilNs == 0 {
			nilNs = r.NsPerOp()
		} else if nilNs > 0 {
			note = fmt.Sprintf("overhead_vs_nil=%+.1f%%", 100*(float64(r.NsPerOp())/float64(nilNs)-1))
		}
		rep.Results = append(rep.Results, result{
			Workload:    m.name,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
			Note:        note,
		})
		fmt.Fprintf(os.Stderr, "%-30s %12d ns/op %8d B/op %6d allocs/op  %s\n",
			m.name, r.NsPerOp(), r.AllocedBytesPerOp(), r.AllocsPerOp(), note)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d workloads)\n", out, len(rep.Results))
}

// runDiscovery measures the anchor→fleet pipeline: one Discover pass over a
// 200-candidate fleet (10 planted followers, 190 AR(1) decoys) with the
// sliding-PCC pre-screen on, and the same pass with every candidate
// confirmed. Discovery is a single long pass, not a tight loop, so each row
// is one timed run (iterations=1); the screened row's note carries the
// speedup and the prune rate that produced it.
func runDiscovery(out string, quick bool) {
	fleet := 200
	if quick {
		fleet = 40
	}
	rep := report{
		Benchmark: "tycosbench -discovery (screen-then-confirm)",
		Description: fmt.Sprintf("Anchor→fleet Discover over %d candidates (n=480, every 20th a planted "+
			"follower at delay index%%7, the rest AR(1) phi=0.9 decoys), SMin=8 SMax=32 TDMax=8 sigma=0.45, "+
			"variant=LMN, seed=1, topk=10. unscreened confirms the whole fleet; screened prunes with the "+
			"sliding-PCC baseline (window=32, threshold=0.9) first.", fleet),
		Date: time.Now().Format("2006-01-02"),
		Runner: runner{
			CPU:        "see go test -bench output on this host",
			Cores:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Note:       "single-pass wall time per row; both rows rank identical surviving candidates",
		},
		Benchtime: "1 pass",
		Reproduce: "go run ./cmd/tycosbench -discovery -out BENCH_DISCOVERY.json",
	}

	const n = 480
	rng := rand.New(rand.NewSource(1))
	av := make([]float64, n)
	for i := range av {
		av[i] = 0.9*ringAt(av, i-1) + rng.NormFloat64()
	}
	anchor := tycos.NewSeries("anchor", av)
	cands := make([]tycos.Series, fleet)
	for c := range cands {
		v := make([]float64, n)
		if c%20 == 0 {
			delay := c % 7
			for i := range v {
				j := i - delay
				if j < 0 {
					j = 0
				}
				v[i] = av[j] + 0.05*rng.NormFloat64()
			}
		} else {
			var a float64
			for i := range v {
				a = 0.9*a + rng.NormFloat64()
				v[i] = a
			}
		}
		cands[c] = tycos.NewSeries(fmt.Sprintf("cand%03d", c), v)
	}

	opts := tycos.DiscoveryOptions{
		Search: tycos.Options{
			SMin: 8, SMax: 32, TDMax: 8, Sigma: 0.45,
			Normalization: tycos.NormMaxEntropy,
			Variant:       tycos.VariantLMN, Seed: 1,
		},
		TopK:            10,
		ScreenWindow:    32,
		ScreenThreshold: 0.9,
	}

	var unscreenedNs int64
	for _, mode := range []struct {
		name   string
		screen bool
	}{
		{"discover/unscreened", false},
		{"discover/screened", true},
	} {
		o := opts
		o.Screen = mode.screen
		start := time.Now()
		res, err := tycos.Discover(context.Background(), anchor, cands, o)
		elapsed := time.Since(start)
		if err != nil {
			fatal(err)
		}
		note := fmt.Sprintf("ranked=%d evaluated=%d", len(res.Ranked), res.Stats.Evaluated)
		if !mode.screen {
			unscreenedNs = elapsed.Nanoseconds()
		} else if unscreenedNs > 0 && elapsed > 0 {
			note = fmt.Sprintf("pruned %d/%d, speedup_vs_unscreened=%.1fx, %s",
				res.Stats.Pruned, res.Stats.Candidates,
				float64(unscreenedNs)/float64(elapsed.Nanoseconds()), note)
		}
		rep.Results = append(rep.Results, result{
			Workload:   mode.name,
			NsPerOp:    elapsed.Nanoseconds(),
			Iterations: 1,
			Note:       note,
		})
		fmt.Fprintf(os.Stderr, "%-24s %12d ns/pass  %s\n", mode.name, elapsed.Nanoseconds(), note)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d workloads)\n", out, len(rep.Results))
}

// ringAt reads v[i] treating negative indices as zero — the AR(1) seed term.
func ringAt(v []float64, i int) float64 {
	if i < 0 {
		return 0
	}
	return v[i]
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tycosbench:", err)
	os.Exit(1)
}
