package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"tycos"
)

// runDiscover is the `tycos discover` subcommand: anchor→fleet top-K
// discovery over the columns of one CSV.
//
//	tycos discover -in plugs.csv -anchor plug7 \
//	      [-candidates a,b,c] [-topk 10] [-screen-threshold 0.2] \
//	      [-checkpoint disc.jsonl] [-progress] [search flags]
//
// Every other column is a candidate unless -candidates narrows the fleet.
// The ranked top-K is printed best first; exit codes match the main command
// (0 complete, 1 failure, 2 usage, 3 partial).
func runDiscover(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tycos discover", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in         = fs.String("in", "", "input CSV file (required)")
		anchor     = fs.String("anchor", "", "name of the anchor column (required)")
		candidates = fs.String("candidates", "", "comma-separated candidate columns (default: every other column)")
		topK       = fs.Int("topk", 10, "ranked candidates to keep")
		screen     = fs.Bool("screen", true, "pre-screen candidates with the sliding-PCC baseline before confirming")
		screenThr  = fs.Float64("screen-threshold", 0, "|r| a candidate must reach in the pre-screen to survive (0 = 0.2)")
		screenWin  = fs.Int("screen-window", 0, "pre-screen sliding window size (0 = max(smin, 8))")
		screenStr  = fs.Int("screen-stride", 0, "pre-screen delay-grid stride (0 = max(1, tdmax/4))")
		workers    = fs.Int("workers", 0, "candidate-level workers (0 = GOMAXPROCS); results are identical for every value")
		ckpt       = fs.String("checkpoint", "", "journal confirmed candidates to this JSONL file and resume from it")
		progress   = fs.Bool("progress", false, "render a live progress line on stderr")
		stats      = fs.Bool("stats", false, "print discovery statistics")
		timeout    = fs.Duration("timeout", 0, "overall wall-clock budget (0 = none)")

		sMin       = fs.Int("smin", 6, "minimum window size (samples)")
		sMax       = fs.Int("smax", 96, "maximum window size (samples)")
		tdMax      = fs.Int("tdmax", 30, "maximum |time delay| (samples)")
		sigma      = fs.Float64("sigma", 0.25, "correlation threshold on normalized MI")
		epsilon    = fs.Float64("epsilon", 0, "noise threshold (0 = sigma/4)")
		k          = fs.Int("k", 4, "KSG nearest-neighbour count")
		delta      = fs.Int("delta", 1, "neighbourhood moving step δ")
		maxIdle    = fs.Int("maxidle", 8, "idle explorations before stopping a climb")
		searchTopK = fs.Int("search-topk", 0, "keep only the K best windows per candidate (0 = threshold mode)")
		variant    = fs.String("variant", "lmn", "search variant: l, ln, lm, lmn")
		seed       = fs.Int64("seed", 1, "root random seed (per-candidate seeds are derived from it)")
		maxEvals   = fs.Int("maxevals", 0, "stop after this many window evaluations per candidate (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *in == "" || *anchor == "" {
		fs.Usage()
		return exitUsage
	}

	opts := tycos.DiscoveryOptions{
		Search: tycos.Options{
			SMin: *sMin, SMax: *sMax, TDMax: *tdMax,
			Sigma: *sigma, Epsilon: *epsilon, K: *k,
			Delta: *delta, MaxIdle: *maxIdle, TopK: *searchTopK,
			Normalization:  tycos.NormMaxEntropy,
			Seed:           *seed,
			MaxEvaluations: *maxEvals,
		},
		TopK:            *topK,
		Screen:          *screen,
		ScreenThreshold: *screenThr,
		ScreenWindow:    *screenWin,
		ScreenStride:    *screenStr,
		Workers:         *workers,
	}
	switch strings.ToLower(*variant) {
	case "l":
		opts.Search.Variant = tycos.VariantL
	case "ln":
		opts.Search.Variant = tycos.VariantLN
	case "lm":
		opts.Search.Variant = tycos.VariantLM
	case "lmn":
		opts.Search.Variant = tycos.VariantLMN
	default:
		fmt.Fprintf(stderr, "tycos: unknown variant %q (want l, ln, lm or lmn)\n", *variant)
		return exitUsage
	}

	cols, err := tycos.LoadAllCSV(*in)
	if err != nil {
		fmt.Fprintln(stderr, "tycos:", err)
		return exitFailure
	}
	anchorSeries, cands, err := splitFleet(cols, *anchor, *candidates)
	if err != nil {
		fmt.Fprintln(stderr, "tycos:", err)
		return exitFailure
	}

	if *ckpt != "" {
		journal, err := tycos.OpenCheckpoint(*ckpt)
		if err != nil {
			fmt.Fprintln(stderr, "tycos:", err)
			return exitFailure
		}
		defer journal.Close()
		if n := journal.Len(); n > 0 {
			fmt.Fprintf(stdout, "checkpoint %s: %d candidates already journaled, resuming\n", *ckpt, n)
		}
		opts.Journal = journal
	}
	if *progress {
		// The engine calls OnProgress one call at a time, so each
		// \r-rewritten line is whole and the last one reads N/N.
		opts.OnProgress = func(p tycos.DiscoveryProgress) {
			fmt.Fprintf(stderr, "\rtycos: %s %d/%d  %-24s", p.Phase, p.Done, p.Total, p.Candidate)
		}
		defer fmt.Fprintln(stderr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	res, err := tycos.Discover(ctx, anchorSeries, cands, opts)
	if err != nil {
		fmt.Fprintln(stderr, "tycos:", err)
		return exitFailure
	}
	printDiscovery(stdout, res, *stats)
	for _, ce := range res.Errors {
		fmt.Fprintf(stderr, "tycos: candidate %s: %s\n", ce.Name, ce.Err)
	}
	if res.Partial {
		fmt.Fprintf(stdout, "(partial: discovery stopped early, %d candidates unfinished)\n", res.Stats.Unfinished)
		return exitPartial
	}
	if len(res.Errors) > 0 {
		return exitFailure
	}
	return exitOK
}

// splitFleet resolves the anchor column and the candidate fleet from the CSV
// columns. An empty pick means every non-anchor column, in file order.
func splitFleet(cols []tycos.Series, anchor, pick string) (tycos.Series, []tycos.Series, error) {
	byName := make(map[string]tycos.Series, len(cols))
	for _, c := range cols {
		byName[c.Name] = c
	}
	a, ok := byName[anchor]
	if !ok {
		return tycos.Series{}, nil, fmt.Errorf("anchor column %q not in CSV", anchor)
	}
	var cands []tycos.Series
	if pick == "" {
		for _, c := range cols {
			if c.Name != anchor {
				cands = append(cands, c)
			}
		}
	} else {
		for _, name := range strings.Split(pick, ",") {
			name = strings.TrimSpace(name)
			if name == anchor {
				return tycos.Series{}, nil, fmt.Errorf("anchor %q listed as its own candidate", name)
			}
			c, ok := byName[name]
			if !ok {
				return tycos.Series{}, nil, fmt.Errorf("candidate column %q not in CSV", name)
			}
			cands = append(cands, c)
		}
	}
	if len(cands) == 0 {
		return tycos.Series{}, nil, fmt.Errorf("no candidate columns besides the anchor")
	}
	return a, cands, nil
}

// printDiscovery renders the ranked fleet, best candidate first.
func printDiscovery(stdout io.Writer, res tycos.DiscoveryResult, stats bool) {
	if len(res.Ranked) == 0 {
		fmt.Fprintln(stdout, "no correlated candidates found")
	}
	for i, c := range res.Ranked {
		fmt.Fprintf(stdout, "#%d %s  score=%.3f  windows=%d\n", i+1, c.Name, c.Score, len(c.Result.Windows))
		for _, w := range c.Result.Windows {
			fmt.Fprintf(stdout, "  %v  score=%.3f  size=%d\n", w.Window, w.MI, w.Size())
		}
	}
	if stats {
		s := res.Stats
		fmt.Fprintf(stdout, "candidates: %d\nscreened: %d (pruned %d, %d degenerate windows)\nconfirmed: %d searched + %d replayed\nthreshold: %.3f\nwindows evaluated: %d\n",
			s.Candidates, s.Screened, s.Pruned, s.DegenerateWindows,
			s.Searched, s.Replayed, res.Threshold, s.Evaluated)
	}
}
