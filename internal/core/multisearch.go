package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"tycos/internal/faultinject"
	"tycos/internal/obs"
	"tycos/internal/series"
)

// PairResult is the outcome of one pair's search within a multi-pair run.
type PairResult struct {
	// XName and YName identify the pair.
	XName, YName string
	// Result is the search outcome; valid when Err is nil. It may be
	// partial (Result.Partial) when the sweep was cancelled or the pair hit
	// its time budget mid-search.
	Result Result
	// Err records a per-pair failure (the sweep continues past it). A panic
	// inside the pair's search is captured here with its stack trace.
	Err error
	// Attempts counts search attempts made for this pair; 0 when the result
	// was restored from a checkpoint or the pair never started.
	Attempts int
	// FromCheckpoint marks a result restored from SweepOptions.Checkpoint
	// instead of being recomputed.
	FromCheckpoint bool
}

// SweepCheckpoint persists completed pair results across process restarts so
// a killed sweep can resume where it left off. Implementations must be safe
// for concurrent use; internal/checkpoint provides the JSONL-backed one
// (exposed publicly as tycos.Checkpoint).
type SweepCheckpoint interface {
	// Lookup returns the journaled result for the named pair, if any.
	Lookup(xName, yName string) (Result, bool)
	// Record journals a completed pair result.
	Record(xName, yName string, r Result) error
}

// SweepOptions configures the robustness envelope of a SearchAllContext
// sweep; the zero value runs every pair once on GOMAXPROCS workers with no
// time budget and no checkpoint.
type SweepOptions struct {
	// Parallelism caps concurrent pair searches (≤ 0 → GOMAXPROCS); the
	// sweep never spawns more workers than there are pairs.
	Parallelism int
	// Retries is the number of extra attempts after a failed pair (panics
	// included), for riding out transient failures; 0 fails the pair on its
	// first error. Attempts stop early when the sweep context is cancelled.
	Retries int
	// PairTimeout bounds each pair's wall-clock search time. A pair that
	// exceeds it returns the windows found so far (Result.Partial,
	// StopReason = StopDeadline) rather than an error. 0 disables.
	PairTimeout time.Duration
	// Checkpoint, when non-nil, is consulted before each pair — journaled
	// pairs are restored, not recomputed — and updated as pairs complete.
	// Partial results are never journaled, so an interrupted pair is
	// recomputed in full on resume.
	Checkpoint SweepCheckpoint
}

// SearchAll runs TYCOS over every ordered pair of distinct series — the
// paper's cross-domain workflow ("we create pairwise time series from 72
// plugs, and apply TYCOS ... on each time series pair") — fanning the pairs
// across parallelism workers (0 → GOMAXPROCS). Each pair gets an
// independent, deterministic search (the configured seed), so results do
// not depend on scheduling. Pairs are ordered (x, y) with x before y in the
// input slice; the delay dimension already covers both directions of
// influence, so the reverse pairs would be redundant.
//
// Results arrive sorted by input position. Series of mismatched lengths
// produce a per-pair error rather than failing the sweep.
func SearchAll(ss []series.Series, opts Options, parallelism int) []PairResult {
	return SearchAllContext(context.Background(), ss, opts, SweepOptions{Parallelism: parallelism})
}

// SearchAllContext is SearchAll with cancellation and fault isolation. Each
// pair runs under recover(), so one panicking pair becomes a PairResult.Err
// (with stack trace) instead of killing the sweep; failed pairs are retried
// up to sw.Retries extra times. Cancelling ctx stops dispatching new pairs
// — undispatched pairs report ctx's error, in-flight pairs return their
// partial results — and a SweepCheckpoint makes the sweep resumable across
// process restarts. Results remain ordered by input position.
func SearchAllContext(ctx context.Context, ss []series.Series, opts Options, sw SweepOptions) []PairResult {
	parallelism := sw.Parallelism
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	type job struct {
		pos  int
		x, y series.Series
	}
	var jobs []job
	for i := 0; i < len(ss); i++ {
		for j := i + 1; j < len(ss); j++ {
			jobs = append(jobs, job{pos: len(jobs), x: ss[i], y: ss[j]})
		}
	}
	if len(jobs) == 0 {
		return nil
	}
	if parallelism > len(jobs) {
		parallelism = len(jobs)
	}
	if opts.RestartWorkers <= 0 {
		// Divide the cores between pair-level and restart-level parallelism
		// instead of letting every pair worker spawn GOMAXPROCS restart
		// workers of its own. Purely a scheduling decision: restart
		// decomposition is schedule-independent, so results are unchanged.
		rw := runtime.GOMAXPROCS(0) / parallelism
		if rw < 1 {
			rw = 1
		}
		opts.RestartWorkers = rw
	}
	out := make([]PairResult, len(jobs))
	var wg sync.WaitGroup
	ch := make(chan job)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range ch {
				// searchPairOnce isolates panics from the search itself, but
				// observer callbacks and checkpoint journaling run outside
				// that recover; without this worker-level net a panic there
				// would escape the goroutine and kill the whole process,
				// voiding the sweep's per-pair fault isolation.
				func() {
					defer func() {
						if r := recover(); r != nil {
							out[jb.pos] = PairResult{XName: jb.x.Name, YName: jb.y.Name,
								Err: fmt.Errorf("core: pair (%s, %s): panic outside search isolation: %v\n%s",
									jb.x.Name, jb.y.Name, r, debug.Stack())}
						}
					}()
					out[jb.pos] = searchPair(ctx, jb.x, jb.y, opts, sw, jb.pos, len(jobs))
				}()
			}
		}()
	}
	fed := len(jobs)
feed:
	for i, jb := range jobs {
		select {
		case ch <- jb:
		case <-ctx.Done():
			fed = i
			break feed
		}
	}
	close(ch)
	wg.Wait()
	// Pairs never handed to a worker report the cancellation.
	for i := fed; i < len(jobs); i++ {
		out[i] = PairResult{XName: jobs[i].x.Name, YName: jobs[i].y.Name, Err: ctx.Err()}
	}
	return out
}

// searchPair resolves one pair: checkpoint restore, then up to 1+Retries
// isolated attempts, then journaling of a completed result. Every resolution
// — searched, restored or failed — emits exactly one obs.PairFinished; each
// search attempt emits one obs.PairStarted first.
func searchPair(ctx context.Context, x, y series.Series, opts Options, sw SweepOptions, pos, total int) PairResult {
	pr := PairResult{XName: x.Name, YName: y.Name}
	o := opts.Observer
	pairName := x.Name + "/" + y.Name
	start := clockNow()
	finish := func() {
		if o == nil {
			return
		}
		errMsg := ""
		if pr.Err != nil {
			errMsg = pr.Err.Error()
		}
		o.Event(obs.PairFinished{
			Pair:           pairName,
			Attempt:        pr.Attempts,
			Index:          pos,
			Total:          total,
			Windows:        len(pr.Result.Windows),
			Partial:        pr.Result.Partial,
			FromCheckpoint: pr.FromCheckpoint,
			Err:            errMsg,
			Duration:       clockSince(start),
		})
	}
	if sw.Checkpoint != nil {
		if res, ok := sw.Checkpoint.Lookup(x.Name, y.Name); ok {
			pr.Result = res
			pr.FromCheckpoint = true
			finish()
			return pr
		}
	}
	attempts := 1 + sw.Retries
	if attempts < 1 {
		attempts = 1
	}
	for try := 1; try <= attempts; try++ {
		if err := ctx.Err(); err != nil {
			if pr.Err == nil {
				pr.Err = fmt.Errorf("core: pair (%s, %s): %w", x.Name, y.Name, err)
			}
			finish()
			return pr
		}
		pr.Attempts = try
		if o != nil {
			o.Event(obs.PairStarted{Pair: pairName, Attempt: try, Index: pos, Total: total})
		}
		res, err := searchPairOnce(ctx, x, y, opts, sw.PairTimeout)
		if err == nil {
			pr.Result, pr.Err = res, nil
			break
		}
		pr.Err = fmt.Errorf("core: pair (%s, %s): %w", x.Name, y.Name, err)
	}
	if pr.Err == nil && !pr.Result.Partial && sw.Checkpoint != nil {
		if err := sw.Checkpoint.Record(x.Name, y.Name, pr.Result); err != nil {
			pr.Err = fmt.Errorf("core: pair (%s, %s): checkpoint: %w", x.Name, y.Name, err)
		}
	}
	finish()
	return pr
}

// searchPairOnce runs a single isolated attempt: panics become errors
// carrying the stack, and the per-pair time budget is layered onto ctx.
func searchPairOnce(ctx context.Context, x, y series.Series, opts Options, timeout time.Duration) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	// The pair's fault key is built only when a fault is armed.
	if faultinject.Enabled() {
		if err := faultinject.Fire(x.Name + "/" + y.Name); err != nil {
			return Result{}, err
		}
	}
	p, err := series.NewPair(x, y)
	if err != nil {
		return Result{}, err
	}
	return SearchContext(ctx, p, opts)
}
