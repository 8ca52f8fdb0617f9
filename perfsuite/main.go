// Command perfsuite is the repository's benchmark: four seeded workloads
// that cover the pair search, anchor-to-fleet discovery and the tycosd
// service path. One run measures one workload and prints its end-to-end
// metrics, or with -trace 1 its per-layer metrics, as the last line of
// standard output:
//
//	{"correct": true, "attempted": 112, "failed": 0, "metrics": {"lat_p50_ms": {"value": 171.2, "unit": "ms"}, ...}}
//
// Usage, from the repository root (perfsuite/run.sh builds and runs it):
//
//	perfsuite -workload pair-L [-seed 1] [-seconds 25] [-trace 0|1]
//	perfsuite -suite [-trace 0|1]      every workload, each in its own process
//	perfsuite -repeat N                the suite N times, with spreads against bounds
//
// See README.md for the workloads, the metrics and what each layer metric is
// expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the command line and dispatches; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	fs := flag.NewFlagSet("perfsuite", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", 25, "how long a run measures, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced layer run: per-layer metrics, spans written to <tmp>/trace/<workload>-seed<seed>.jsonl")
	tmp := fs.String("tmp", os.TempDir(), "scratch directory for journals and spans")
	smoke := fs.Bool("smoke", false, "tiny inputs and short runs, for tests")
	suite := fs.Bool("suite", false, "run every workload, each in its own process")
	repeat := fs.Int("repeat", 0, "run the suite N times with seeds seed..seed+N-1 and report spreads against bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 || *repeat < 0 {
		fs.Usage()
		return 2
	}
	cfg := runConfig{
		seed:    *seed,
		measure: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		smoke:   *smoke,
		tmp:     *tmp,
	}
	switch {
	case *repeat > 0:
		return repeatSuite(cfg, *repeat, stdout, stderr)
	case *suite:
		return runSuite(cfg, stdout, stderr)
	case *workload != "":
		w := workloadByName(*workload)
		if w == nil {
			fmt.Fprintf(stderr, "perfsuite: unknown workload %q (want %s)\n", *workload, strings.Join(names, ", "))
			return 2
		}
		return runOne(w, cfg, stdout, stderr)
	}
	fs.Usage()
	return 2
}

// runOne runs one workload in this process and prints its result line.
func runOne(w *workloadSpec, cfg runConfig, stdout, stderr io.Writer) int {
	if cfg.trace {
		cfg.tr = newTracer()
	}
	o, err := w.run(cfg)
	if err == nil && cfg.trace {
		if err = traceLayers(w, cfg, o); err == nil {
			err = cfg.tr.write(filepath.Join(cfg.tmp, "trace", fmt.Sprintf("%s-seed%d.jsonl", w.Name, cfg.seed)))
		}
	}
	var metrics map[string]metricValue
	if err == nil {
		metrics, err = o.metrics(cfg.trace)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfsuite: %s: %v\n", w.Name, err)
		return 1
	}
	for _, f := range o.failures {
		fmt.Fprintf(stderr, "perfsuite: %s: failed: %s\n", w.Name, f)
	}
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(stderr, "%-16s %-32s %14.4f %s\n", w.Name, k, metrics[k].Value, metrics[k].Unit)
	}
	line, err := json.Marshal(resultLine{
		Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfsuite: %s: %v\n", w.Name, err)
		return 1
	}
	fmt.Fprintf(stdout, "digest %s %s\n", w.Name, o.digest)
	fmt.Fprintln(stdout, string(line))
	if o.failed > 0 {
		return 1
	}
	return 0
}
