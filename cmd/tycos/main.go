// Command tycos searches a CSV time-series pair for multi-scale time-delay
// correlations and prints the extracted windows.
//
// Usage:
//
//	tycos -in data.csv -x rain -y collisions \
//	      -smin 6 -smax 96 -tdmax 30 -sigma 0.25 [-variant lmn] [-topk 0]
//	tycos -in plugs.csv -all [-checkpoint sweep.jsonl] [-retries 1] [-progress]
//	tycos discover -in plugs.csv -anchor plug7 [-topk 10] [-progress]
//
// The input file must be a headered CSV; -x and -y name the two columns, or
// -all sweeps every pair of columns. Windows are printed one per line as
// ([start,end], τ=delay) score.
//
// A first SIGINT (Ctrl-C) cancels the search gracefully: the windows
// accepted so far are printed under a "(partial)" banner. -timeout and
// -maxevals bound the run the same way. With -checkpoint, completed pairs of
// a sweep are journaled so a killed run resumes where it left off.
//
// Observability: -trace streams every search event as JSONL (with
// -trace-sample R the run carries a deterministic trace ID stamped onto
// every line), -progress renders a live pair/ETA line on stderr during -all
// sweeps, -pprof serves net/http/pprof and the live counters on /metrics, and
// -cpuprofile/-memprofile write pprof-loadable profiles of the run.
//
// Exit status: 0 on a complete run, 1 when the search or input loading
// fails, 2 on usage errors, 3 when the run was interrupted or hit a budget
// and the printed results are partial.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof serves the profiling endpoints
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"syscall"

	"tycos"
)

const (
	exitOK      = 0
	exitFailure = 1
	exitUsage   = 2
	exitPartial = 3
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole CLI behind an injectable front: tests drive it with
// custom argv and buffers instead of a subprocess.
func run(args []string, stdout, stderr io.Writer) int {
	// Subcommands dispatch before flag parsing; everything else is the
	// original pair/sweep flag surface.
	if len(args) > 0 && args[0] == "discover" {
		return runDiscover(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("tycos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in       = fs.String("in", "", "input CSV file (required)")
		xName    = fs.String("x", "", "name of the X column (required unless -all)")
		yName    = fs.String("y", "", "name of the Y column (required unless -all)")
		all      = fs.Bool("all", false, "search every pair of CSV columns instead of one -x/-y pair")
		sMin     = fs.Int("smin", 6, "minimum window size (samples)")
		sMax     = fs.Int("smax", 96, "maximum window size (samples)")
		tdMax    = fs.Int("tdmax", 30, "maximum |time delay| (samples)")
		sigma    = fs.Float64("sigma", 0.25, "correlation threshold on normalized MI")
		epsilon  = fs.Float64("epsilon", 0, "noise threshold (0 = sigma/4)")
		k        = fs.Int("k", 4, "KSG nearest-neighbour count")
		delta    = fs.Int("delta", 1, "neighbourhood moving step δ")
		maxIdle  = fs.Int("maxidle", 8, "idle explorations before stopping a climb")
		topK     = fs.Int("topk", 0, "keep only the K best windows (0 = threshold mode)")
		variant  = fs.String("variant", "lmn", "search variant: l, ln, lm, lmn")
		brute    = fs.Bool("brute", false, "run the exact Brute Force search instead (slow)")
		seed     = fs.Int64("seed", 1, "random seed")
		stats    = fs.Bool("stats", false, "print search statistics")
		timeout  = fs.Duration("timeout", 0, "overall wall-clock budget (0 = none)")
		maxEvals = fs.Int("maxevals", 0, "stop after this many window evaluations per pair (0 = none)")
		parallel = fs.Int("parallel", 0, "sweep workers for -all (0 = GOMAXPROCS)")
		restartW = fs.Int("restart-workers", 0, "concurrent LAHC restart workers within each pair (0 = GOMAXPROCS); results are identical for every value")
		retries  = fs.Int("retries", 0, "extra attempts per failed pair in -all sweeps")
		pairTO   = fs.Duration("pairtimeout", 0, "per-pair wall-clock budget in -all sweeps (0 = none)")
		ckpt     = fs.String("checkpoint", "", "journal completed sweep pairs to this JSONL file and resume from it")

		traceOut    = fs.String("trace", "", "stream search events to this JSONL trace file")
		traceSample = fs.Float64("trace-sample", 0, "probability the run is trace-stamped (0..1; deterministic in -seed, stamps -trace lines with trace/span IDs)")
		progress    = fs.Bool("progress", false, "render a live progress/ETA line on stderr (with -all)")
		pprofSrv    = fs.String("pprof", "", "serve net/http/pprof and Prometheus counters on /metrics at this address (e.g. localhost:6060)")
		cpuProf     = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf     = fs.String("memprofile", "", "write an end-of-run heap profile to this file")
		version     = fs.Bool("version", false, "print build information and exit")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *version {
		printVersion(stdout)
		return exitOK
	}
	if *in == "" || (!*all && (*xName == "" || *yName == "")) {
		fs.Usage()
		return exitUsage
	}
	opts := tycos.Options{
		SMin: *sMin, SMax: *sMax, TDMax: *tdMax,
		Sigma: *sigma, Epsilon: *epsilon, K: *k,
		Delta: *delta, MaxIdle: *maxIdle, TopK: *topK,
		Normalization:  tycos.NormMaxEntropy,
		Seed:           *seed,
		MaxEvaluations: *maxEvals,
		RestartWorkers: *restartW,
	}
	switch strings.ToLower(*variant) {
	case "l":
		opts.Variant = tycos.VariantL
	case "ln":
		opts.Variant = tycos.VariantLN
	case "lm":
		opts.Variant = tycos.VariantLM
	case "lmn":
		opts.Variant = tycos.VariantLMN
	default:
		fmt.Fprintf(stderr, "tycos: unknown variant %q (want l, ln, lm or lmn)\n", *variant)
		return exitUsage
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(stderr, "tycos:", err)
			return exitFailure
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "tycos:", err)
			f.Close()
			return exitFailure
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(stderr, "tycos:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects so the profile reflects retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "tycos:", err)
			}
		}()
	}

	var observers []tycos.Observer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(stderr, "tycos:", err)
			return exitFailure
		}
		tw := tycos.NewTraceWriter(f)
		defer func() {
			if err := tw.Close(); err != nil {
				fmt.Fprintln(stderr, "tycos: trace:", err)
			}
			f.Close()
		}()
		observers = append(observers, tw)
	}
	if *progress && *all {
		observers = append(observers, newProgressSink(stderr))
	}
	if *pprofSrv != "" {
		ln, err := net.Listen("tcp", *pprofSrv)
		if err != nil {
			fmt.Fprintln(stderr, "tycos:", err)
			return exitFailure
		}
		defer ln.Close()
		// net/http/pprof (imported above) registers on DefaultServeMux; the
		// run's registry gets a per-run mux, because registering /metrics on
		// DefaultServeMux would panic the second time run executes in one
		// process.
		metrics := tycos.NewMetrics()
		mux := http.NewServeMux()
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			metrics.WritePrometheus(w)
		})
		//lint:allow gopanic net/http recovers per-connection handler panics itself; Serve only returns when the deferred ln.Close fires
		go http.Serve(ln, mux)
		fmt.Fprintf(stderr, "tycos: profiling on http://%s/debug/pprof/ (counters on /metrics)\n", ln.Addr())
		observers = append(observers, metrics)
	}
	opts.Observer = tycos.MultiObserver(observers...)

	// A first SIGINT or SIGTERM cancels the search gracefully — the windows
	// accepted so far are printed with a "(partial)" banner; a second signal
	// kills the process the usual way. SIGTERM matters beyond the terminal:
	// it is what cron, timeout(1) and container runtimes send first, and
	// without it a checkpointed sweep would lose its journal flush.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// The run's trace root is a pure function of the seed, and the sampling
	// decision of the trace ID — so the same invocation always traces (or
	// doesn't) identically. When sampled, the root rides the context and the
	// search stamps every -trace line with trace/span IDs.
	if *traceSample > 0 {
		root := tycos.NewTrace(*seed, 1)
		if tycos.NewSampler(*traceSample).Sampled(root.TraceID) {
			ctx = tycos.ContextWithSpan(ctx, root)
			fmt.Fprintf(stderr, "tycos: trace %x\n", root.TraceID)
		}
	}

	if *all {
		return runSweep(ctx, *in, opts, tycos.SweepOptions{
			Parallelism: *parallel,
			Retries:     *retries,
			PairTimeout: *pairTO,
		}, *ckpt, *stats, stdout, stderr)
	}
	return runPair(ctx, *in, *xName, *yName, opts, *brute, *stats, stdout, stderr)
}

// printVersion reports the build as recorded by the Go toolchain.
func printVersion(w io.Writer) {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		fmt.Fprintln(w, "tycos (no build information)")
		return
	}
	v := info.Main.Version
	if v == "" || v == "(devel)" {
		v = "devel"
	}
	fmt.Fprintf(w, "tycos %s %s\n", v, info.GoVersion)
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision", "vcs.time", "vcs.modified":
			fmt.Fprintf(w, "  %s=%s\n", s.Key, s.Value)
		}
	}
}

// runPair searches the single (-x, -y) pair.
func runPair(ctx context.Context, in, xName, yName string, opts tycos.Options, brute, stats bool, stdout, stderr io.Writer) int {
	pair, err := tycos.LoadPairCSV(in, xName, yName)
	if err != nil {
		fmt.Fprintln(stderr, "tycos:", err)
		return exitFailure
	}
	var res tycos.Result
	if brute {
		res, err = tycos.BruteForce(pair, opts)
	} else {
		res, err = tycos.SearchContext(ctx, pair, opts)
	}
	if err != nil {
		fmt.Fprintln(stderr, "tycos:", err)
		return exitFailure
	}
	printResult(stdout, res, stats)
	if res.Partial {
		fmt.Fprintf(stdout, "(partial: search stopped early — %s)\n", res.Stats.StopReason)
		return exitPartial
	}
	return exitOK
}

// runSweep searches every pair of columns in the CSV.
func runSweep(ctx context.Context, in string, opts tycos.Options, sw tycos.SweepOptions, ckptPath string, stats bool, stdout, stderr io.Writer) int {
	cols, err := tycos.LoadAllCSV(in)
	if err != nil {
		fmt.Fprintln(stderr, "tycos:", err)
		return exitFailure
	}
	if ckptPath != "" {
		journal, err := tycos.OpenCheckpoint(ckptPath)
		if err != nil {
			fmt.Fprintln(stderr, "tycos:", err)
			return exitFailure
		}
		defer journal.Close()
		if n := journal.Len(); n > 0 {
			fmt.Fprintf(stdout, "checkpoint %s: %d pairs already journaled, resuming\n", ckptPath, n)
		}
		sw.Checkpoint = journal
	}
	results := tycos.SearchAllContext(ctx, cols, opts, sw)
	failed, partial := 0, false
	for _, pr := range results {
		if pr.Err != nil {
			failed++
			// Every failure line names the pair and the attempt count, so a
			// long sweep's errors can be attributed without scrollback
			// archaeology. The wrapped cause already carries the pair name;
			// unwrap it to avoid saying so twice.
			cause := pr.Err
			if u := errors.Unwrap(cause); u != nil {
				cause = u
			}
			fmt.Fprintf(stderr, "tycos: pair %s/%s (attempt %d): %v\n", pr.XName, pr.YName, pr.Attempts, cause)
			continue
		}
		tag := ""
		if pr.FromCheckpoint {
			tag = "  (from checkpoint)"
		}
		if pr.Result.Partial {
			partial = true
			tag += "  (partial)"
		}
		fmt.Fprintf(stdout, "%s / %s: %d windows%s\n", pr.XName, pr.YName, len(pr.Result.Windows), tag)
		for _, w := range pr.Result.Windows {
			fmt.Fprintf(stdout, "  %v  score=%.3f  size=%d\n", w.Window, w.MI, w.Size())
		}
		if stats {
			printStats(stdout, pr.Result.Stats, "  ")
		}
	}
	if ctx.Err() != nil || partial {
		fmt.Fprintf(stdout, "(partial: sweep stopped early, %d/%d pairs failed or unfinished)\n", failed, len(results))
		return exitPartial
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "tycos: %d/%d pairs failed\n", failed, len(results))
		return exitFailure
	}
	return exitOK
}

func printResult(stdout io.Writer, res tycos.Result, stats bool) {
	if len(res.Windows) == 0 {
		fmt.Fprintln(stdout, "no correlated windows found")
	}
	for _, w := range res.Windows {
		fmt.Fprintf(stdout, "%v  score=%.3f  size=%d\n", w.Window, w.MI, w.Size())
	}
	if stats {
		printStats(stdout, res.Stats, "")
	}
}

func printStats(stdout io.Writer, st tycos.Stats, indent string) {
	fmt.Fprintf(stdout, "%swindows evaluated: %d\n%sbatch MI estimations: %d\n%sincremental moves: %d\n%srestarts: %d\n%spruned directions: %d\n%sstop reason: %s\n",
		indent, st.WindowsEvaluated, indent, st.MIBatch, indent, st.MIIncremental,
		indent, st.Restarts, indent, st.PrunedDirections, indent, st.StopReason)
	if st.Timing.Total > 0 {
		fmt.Fprintf(stdout, "%sphases: validate=%s nullmodel=%s climb=%s finalize=%s total=%s (%.0f evals/s)\n",
			indent, st.Timing.Validate, st.Timing.NullModel, st.Timing.Climb,
			st.Timing.Finalize, st.Timing.Total, st.Timing.EvalsPerSec)
	}
}
