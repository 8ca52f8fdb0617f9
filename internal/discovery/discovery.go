// Package discovery implements anchor→fleet top-K correlation discovery: one
// anchor series ranked against N candidate series by their strongest delayed
// correlation, through a screen-then-confirm pipeline.
//
// The paper's search answers one pair at a time; the production shape is
// "which of my thousand metrics moved with this one, and at what lag?". The
// engine answers it in two phases:
//
//  1. Screen. Every candidate is scored with the cheap sliding-PCC baseline
//     over a coarse delay grid (internal/baseline, degenerate windows
//     skipped per its contract). Candidates whose best |r| stays below the
//     screen threshold are pruned before any KSG/LAHC budget is spent —
//     the AMIC-style cheap-statistic-then-MI-confirm structure.
//  2. Confirm. Survivors run a full budgeted core.SearchContext against the
//     anchor. Candidate scores — each one's best accepted window MI — feed
//     the adaptive top-K threshold of Section 6.3.2, and the ranked list is
//     cut there.
//
// Both phases run over a deterministic sharded worker plan (the PR-3
// segment-plan idiom): candidates are cut into fixed shards, per-candidate
// seeds derive from the shard coordinates, workers pull shards and write
// into per-candidate slots, and the merge walks candidates in fleet order.
// The ranked output is therefore byte-identical for every worker count.
//
// With a Journal, each confirmed candidate's result is recorded under a
// fingerprint key as soon as it completes, so a killed discovery resumes by
// replaying finished candidates instead of recomputing them.
package discovery

import (
	"cmp"
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tycos/internal/checkpoint"
	"tycos/internal/core"
	"tycos/internal/freelist"
	"tycos/internal/mi"
	"tycos/internal/obs"
	"tycos/internal/series"
)

// Options configures one Discover call.
type Options struct {
	// Search configures each survivor's confirmation search. Search.Seed is
	// the root seed: every candidate's search derives its own seed from it
	// and the candidate's fleet position (see CandidateSeed), so results are
	// independent of scheduling. Search.Observer is managed by the engine
	// and ignored if set; Search.RestartWorkers
	// defaults to 1 here (the engine's parallelism is across candidates —
	// results are identical for every value either way).
	Search core.Options
	// TopK is the number of ranked candidates returned (0 → 10). Distinct
	// from Search.TopK, which selects windows within one candidate's search.
	TopK int
	// Screen enables the sliding-PCC pre-screen; when false every candidate
	// is confirmed.
	Screen bool
	// ScreenThreshold is the |r| bar a candidate's best screened window must
	// meet to survive (0 → 0.2).
	ScreenThreshold float64
	// ScreenWindow is the pre-screen's sliding window size in samples
	// (0 → max(Search.SMin, 8)).
	ScreenWindow int
	// ScreenStride is the delay-grid stride of the pre-screen: delays
	// 0, ±stride, ±2·stride, … up to Search.TDMax are tested
	// (0 → max(1, Search.TDMax/4)).
	ScreenStride int
	// Workers bounds the candidate-level concurrency (≤0 → GOMAXPROCS).
	// Results are byte-identical for every value.
	Workers int
	// Journal, when non-nil, records each confirmed candidate's result under
	// a fingerprint key (anchor, candidate + "\x1f" + fingerprint) and
	// replays matching entries instead of recomputing, making a killed
	// discovery resumable. Record failures degrade durability, not results
	// (counted in Stats.JournalErrors).
	Journal core.SweepCheckpoint
	// Observer, when non-nil, receives every candidate search's events,
	// counters and phase timings plus the discovery-level counters, replayed
	// in fleet order after the fan-out so the stream is byte-identical for
	// every worker count. Must be safe for concurrent use (the progress
	// callback aside, the engine itself serialises emission).
	Observer obs.Sink
	// OnProgress, when non-nil, is called once per candidate resolved in
	// a phase, in completion order (schedule-dependent, unlike everything
	// else), one call at a time: within a phase Done counts up by one from
	// 1 and ends at Total. For live CLI progress; must be fast, since the
	// workers wait for it.
	OnProgress func(Progress)
}

// withDefaults resolves zero options.
func (o Options) withDefaults() Options {
	if o.TopK <= 0 {
		o.TopK = 10
	}
	if o.ScreenThreshold <= 0 {
		o.ScreenThreshold = 0.2
	}
	if o.ScreenWindow <= 0 {
		o.ScreenWindow = o.Search.SMin
		if o.ScreenWindow < 8 {
			o.ScreenWindow = 8
		}
	}
	if o.ScreenStride <= 0 {
		o.ScreenStride = o.Search.TDMax / 4
		if o.ScreenStride < 1 {
			o.ScreenStride = 1
		}
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Search.RestartWorkers <= 0 {
		o.Search.RestartWorkers = 1
	}
	return o
}

// Progress is one OnProgress notification.
type Progress struct {
	// Phase is "screen" or "confirm".
	Phase string
	// Done counts candidates resolved in this phase so far; Total is the
	// phase's candidate count (the full fleet for screen, survivors for
	// confirm: the candidates the screen neither pruned nor failed), fixed
	// when the phase starts.
	Done, Total int
	// Candidate names the series just resolved; Pruned marks a screen
	// decision against it.
	Candidate string
	Pruned    bool
}

// Candidate is one ranked discovery hit.
type Candidate struct {
	// Name and Index identify the candidate series and its fleet position.
	Name  string `json:"name"`
	Index int    `json:"index"`
	// Score is the candidate's best accepted window MI — the ranking key
	// (ties break toward the lower Index).
	Score float64 `json:"score"`
	// Result is the candidate's full search result (windows, deterministic
	// stats), core.Result-compatible.
	Result core.Result `json:"result"`
}

// CandidateError records one candidate that could not be confirmed.
type CandidateError struct {
	Name  string `json:"name"`
	Index int    `json:"index"`
	Err   string `json:"err"`
}

// Stats counts the pipeline's work. All fields are deterministic for a given
// (input, Options) except the Searched/Replayed split, which reflects
// journal state: a resumed discovery replays what its predecessor confirmed.
type Stats struct {
	// Candidates is the fleet size; Screened counts candidates the
	// pre-screen evaluated, Pruned those it dropped.
	Candidates int `json:"candidates"`
	Screened   int `json:"screened"`
	Pruned     int `json:"pruned"`
	// Searched counts confirmation searches computed; Replayed counts
	// survivors answered from the journal.
	Searched int `json:"searched"`
	Replayed int `json:"replayed"`
	// Failed counts candidates that errored (screen or search); Unfinished
	// counts candidates never reached before cancellation.
	Failed     int `json:"failed"`
	Unfinished int `json:"unfinished"`
	// ScreenWindows and DegenerateWindows aggregate the pre-screen's
	// SlideStats over every candidate and delay.
	ScreenWindows     int `json:"screen_windows"`
	DegenerateWindows int `json:"degenerate_windows"`
	// Evaluated sums WindowsEvaluated over every confirmation search
	// (replayed ones included — their journaled stats count).
	Evaluated int `json:"evaluated"`
	// JournalErrors counts failed journal records (durability lost, results
	// unaffected).
	JournalErrors int `json:"journal_errors"`
}

// Result is one Discover outcome.
type Result struct {
	// Anchor names the anchor series.
	Anchor string `json:"anchor"`
	// Ranked holds the top-K candidates, best first (Score descending,
	// Index ascending on ties). Candidates with no accepted window are
	// never ranked.
	Ranked []Candidate `json:"ranked"`
	// Threshold is the adaptive top-K acceptance bar (Section 6.3.2) after
	// every confirmed score was offered: the K-th best score once K
	// candidates scored, Search.Sigma until then.
	Threshold float64 `json:"threshold"`
	// Partial marks a discovery cut short by cancellation: Ranked covers
	// only the candidates resolved before the stop.
	Partial bool `json:"partial"`
	// Errors lists failed candidates in fleet order.
	Errors []CandidateError `json:"errors,omitempty"`
	Stats  Stats            `json:"stats"`
}

// shardSpan is the fixed candidate-shard width of the worker plan. Like the
// PR-3 segment span it is a pure function of nothing at all — the plan
// depends only on the fleet size, never the worker count.
const shardSpan = 4

// shard is one contiguous candidate index range [from, to).
type shard struct{ from, to int }

// planShards appends to dst the plan that cuts the fleet into fixed-width
// shards.
func planShards(dst []shard, n int) []shard {
	for from := 0; from < n; from += shardSpan {
		to := from + shardSpan
		if to > n {
			to = n
		}
		dst = append(dst, shard{from: from, to: to})
	}
	return dst
}

// splitmix64 is the SplitMix64 finalizer, the same per-coordinate seed mixer
// the core's restart plan uses.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// CandidateSeed derives the search seed for the candidate at the given fleet
// index from the root seed (Options.Search.Seed), via the candidate's
// (shard, local) coordinates in the fixed shard plan. The derivation depends
// only on the root seed and the index — not on screening decisions, the
// worker count or the schedule — so a candidate's confirmation search is
// identical whether screening ran, was disabled, or pruned its neighbours.
// Exported so differential tests can reproduce a candidate's search exactly.
func CandidateSeed(root int64, index int) int64 {
	h := splitmix64(uint64(root))
	h = splitmix64(h ^ uint64(index/shardSpan))
	h = splitmix64(h ^ uint64(index%shardSpan))
	return int64(h)
}

// fingerprint hashes everything that determines one candidate's confirmation
// result — the pair identity, the aligned length, the candidate's fleet
// position (it seeds the search) and every result-affecting search option —
// so a journaled result is only replayed for a discovery that would
// recompute it identically.
func fingerprint(anchor, cand string, n, index int, o core.Options) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "discover\x00%s\x00%s\x00%d\x00%d\x00", anchor, cand, n, index)
	checkpoint.HashOptions(h, o)
	return fmt.Sprintf("%016x", h.Sum64())
}

// candState is one candidate's slot: workers write it, the merge reads it in
// fleet order. Exactly one worker ever touches a slot.
type candState struct {
	name     string
	err      error
	screened bool
	pruned   bool
	screen   screenOutcome
	// survivor marks a candidate that entered confirmation: the screen
	// (when it ran) neither pruned nor failed it.
	survivor    bool
	searched    bool
	replayed    bool
	done        bool
	journalErrs int
	res         core.Result
	buf         *eventBuffer
}

// engine carries one Discover pass: its inputs, read-only while the
// workers run, and its scratch, taken from a free list so that a warm pass
// allocates only what it returns. The scratch is the candidate slots, the
// shard plan, the screener, one screenScratch per screen worker, and the
// merge's ranking and adaptive threshold. Nothing the caller receives
// lives here: the merge copies the ranking out, and each slot's result and
// error are the candidate's own.
type engine struct {
	anchor series.Series
	cands  []series.Series
	opts   Options

	slots  []candState
	shards []shard
	// screen holds the delay grid and the anchor's window moments (unset
	// when screening is off); scratch holds one screenScratch per screen
	// worker.
	screen  screener
	scratch []screenScratch
	scored  []Candidate
	topk    mi.TopK

	progressMu    sync.Mutex
	progressDone  int
	progressTotal int

	// lostWorkers counts scheduler workers killed by an escaped panic (see
	// runShards); nonzero forces Partial even when every slot resolved.
	lostWorkers int32
}

// passPool is the free list of pass scratch: one per Discover in flight.
var passPool = freelist.New((*engine).release)

// release empties a pass's scratch for the free list: it drops the inputs,
// the slots' results, errors and event buffers, the anchor and the last
// candidates the screen read, and every buffer above the retention bound.
func (e *engine) release() {
	e.anchor, e.cands, e.opts = series.Series{}, nil, Options{}
	e.slots = freelist.Trim(e.slots)
	e.shards = freelist.Trim(e.shards)
	e.screen.release()
	all := e.scratch[:cap(e.scratch)]
	for i := range all {
		all[i].release()
	}
	e.scratch = all[:0]
	if !freelist.Fits[screenScratch](cap(all)) {
		e.scratch = nil
	}
	e.scored = freelist.Trim(e.scored)
	e.topk.Reset(0, 0)
	e.progressDone, e.progressTotal, e.lostWorkers = 0, 0, 0
}

// Discover ranks the candidates against the anchor. See the package comment
// for the pipeline; the returned error covers only malformed inputs — per-
// candidate failures land in Result.Errors and cancellation in
// Result.Partial.
func Discover(ctx context.Context, anchor series.Series, candidates []series.Series, opts Options) (Result, error) {
	opts = opts.withDefaults()
	if anchor.Len() == 0 {
		return Result{}, fmt.Errorf("discovery: anchor %q is empty", anchor.Name)
	}
	if len(candidates) == 0 {
		return Result{}, fmt.Errorf("discovery: no candidates")
	}
	e := passPool.Take()
	defer passPool.Put(e)
	e.anchor, e.cands, e.opts = anchor, candidates, opts
	e.slots = freelist.Grow(e.slots, len(candidates))
	for i := range e.slots {
		e.slots[i].name = candidates[i].Name
		if opts.Observer != nil {
			e.slots[i].buf = &eventBuffer{}
		}
	}
	e.shards = planShards(e.shards, len(candidates))

	if opts.Screen {
		e.screen.reset(anchor.Values, opts)
		e.scratch = freelist.Grow(e.scratch, e.workers())
		e.resetProgress(len(candidates))
		e.runShards(ctx, e.screenCandidate, "screen")
	}
	// The survivors, and with them the confirm total, are fixed at the
	// screen barrier: every candidate the screen neither pruned nor failed
	// enters confirmation.
	survivors := 0
	for i := range e.slots {
		st := &e.slots[i]
		st.survivor = !st.pruned && st.err == nil
		if st.survivor {
			survivors++
		}
	}
	e.resetProgress(survivors)
	e.runShards(ctx, e.searchCandidate, "confirm")

	return e.merge(ctx), nil
}

// workers is the number of workers runShards starts for the shard plan.
func (e *engine) workers() int {
	return min(e.opts.Workers, len(e.shards))
}

// runShards fans the shard plan over the worker pool: workers atomically
// pull the next shard and process its candidates in index order, writing
// only their own slots and their own scratch (work's worker argument, in
// [0, workers)). No ordering information leaks from the schedule.
func (e *engine) runShards(ctx context.Context, work func(ctx context.Context, worker, i int), phase string) {
	shards := e.shards
	var next int32
	var wg sync.WaitGroup
	for w := 0; w < e.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Last-resort fault isolation: candidate-level panics are
			// recovered inside the work funcs, so anything reaching here
			// escaped them (a user OnProgress callback, say). It loses this
			// worker, never the process — the worker's untouched slots
			// surface as Unfinished and merge reports Partial.
			defer func() {
				if r := recover(); r != nil {
					atomic.AddInt32(&e.lostWorkers, 1)
				}
			}()
			for {
				si := int(atomic.AddInt32(&next, 1)) - 1
				if si >= len(shards) {
					return
				}
				sh := shards[si]
				for i := sh.from; i < sh.to; i++ {
					// The stop check every scheduler iteration is the
					// cancellation contract: a cancelled discovery stops at
					// the next candidate boundary (and the context also rides
					// into the search itself, stopping mid-candidate).
					if ctx.Err() != nil {
						continue
					}
					work(ctx, w, i)
					e.progress(phase, i)
				}
			}
		}()
	}
	wg.Wait()
}

// searchCandidate confirms one survivor: journal replay when possible,
// otherwise a full search with the candidate's derived seed. Panics are
// isolated to the candidate.
func (e *engine) searchCandidate(ctx context.Context, _, i int) {
	st := &e.slots[i]
	if !st.survivor {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			st.err = fmt.Errorf("discovery: candidate %s panicked: %v", st.name, r)
			st.done = false
			st.searched = false
		}
	}()
	cand := e.cands[i]
	n := e.anchor.Len()
	if cand.Len() < n {
		n = cand.Len()
	}
	sOpts := e.opts.Search
	sOpts.Seed = CandidateSeed(e.opts.Search.Seed, i)
	// Assign the buffer only when one exists: a typed-nil *eventBuffer in the
	// interface would read as an active observer.
	sOpts.Observer = nil
	if st.buf != nil {
		sOpts.Observer = st.buf
	}

	if e.opts.Journal != nil {
		jx, jy := e.journalKeys(i, n)
		if res, ok := e.opts.Journal.Lookup(jx, jy); ok {
			st.res = res
			st.replayed = true
			st.done = true
			return
		}
	}

	ax, err := e.anchor.Slice(0, n-1)
	if err != nil {
		st.err = err
		return
	}
	cx, err := cand.Slice(0, n-1)
	if err != nil {
		st.err = err
		return
	}
	pair, err := series.NewPair(ax, cx)
	if err != nil {
		st.err = err
		return
	}
	res, err := core.SearchContext(ctx, pair, sOpts)
	if err != nil {
		st.err = err
		return
	}
	// Timings are the one nondeterministic part of a result; strip them so
	// journal replay and worker-count comparisons are byte-identical.
	res.Stats = res.Stats.Deterministic()
	st.res = res
	st.searched = true
	st.done = true
	if e.opts.Journal != nil && !res.Partial {
		jx, jy := e.journalKeys(i, n)
		if err := e.opts.Journal.Record(jx, jy, res); err != nil {
			// Durability lost, result intact: count it and keep going.
			st.journalErrs++
		}
	}
}

// journalKeys builds the candidate's journal key pair.
func (e *engine) journalKeys(i, n int) (string, string) {
	return e.anchor.Name, e.slots[i].name + "\x1f" + fingerprint(e.anchor.Name, e.slots[i].name, n, i, e.opts.Search)
}

// resetProgress restarts the OnProgress counter for a phase of total
// candidates.
func (e *engine) resetProgress(total int) {
	e.progressMu.Lock()
	e.progressDone, e.progressTotal = 0, total
	e.progressMu.Unlock()
}

// progress delivers one OnProgress notification (completion order) for a
// candidate resolved in the phase: every screened candidate, and in the
// confirm phase only the survivors. The callback runs under the lock, so
// calls arrive one at a time with Done in order; the deferred unlock frees
// the lock should the callback panic.
func (e *engine) progress(phase string, i int) {
	if e.opts.OnProgress == nil || (phase == "confirm" && !e.slots[i].survivor) {
		return
	}
	e.progressMu.Lock()
	defer e.progressMu.Unlock()
	e.progressDone++
	e.opts.OnProgress(Progress{
		Phase: phase, Done: e.progressDone, Total: e.progressTotal,
		Candidate: e.slots[i].name, Pruned: e.slots[i].pruned,
	})
}

// merge walks the slots in fleet order: replays buffered events, folds
// stats, offers scores to the adaptive threshold and cuts the ranked list.
func (e *engine) merge(ctx context.Context) Result {
	out := Result{Anchor: e.anchor.Name}
	out.Stats.Candidates = len(e.slots)
	topk := &e.topk
	topk.Reset(e.opts.TopK, e.opts.Search.Sigma)
	scored := e.scored[:0]
	for i := range e.slots {
		st := &e.slots[i]
		if st.buf != nil {
			e.emitCandidate(i, st)
		}
		out.Stats.ScreenWindows += st.screen.windows
		out.Stats.DegenerateWindows += st.screen.degenerate
		out.Stats.JournalErrors += st.journalErrs
		switch {
		case st.err != nil:
			out.Stats.Failed++
			if st.screened {
				out.Stats.Screened++
			}
			out.Errors = append(out.Errors, CandidateError{Name: st.name, Index: i, Err: st.err.Error()})
			continue
		case st.pruned:
			out.Stats.Screened++
			out.Stats.Pruned++
			continue
		case !st.done:
			out.Stats.Unfinished++
			if st.screened {
				out.Stats.Screened++
			}
			continue
		}
		if st.screened {
			out.Stats.Screened++
		}
		if st.replayed {
			out.Stats.Replayed++
		} else {
			out.Stats.Searched++
		}
		out.Stats.Evaluated += st.res.Stats.WindowsEvaluated
		if st.res.Partial {
			out.Partial = true
		}
		if len(st.res.Windows) == 0 {
			continue
		}
		best := st.res.Windows[0].MI
		for _, w := range st.res.Windows[1:] {
			if w.MI > best {
				best = w.MI
			}
		}
		topk.Offer(best)
		scored = append(scored, Candidate{Name: st.name, Index: i, Score: best, Result: st.res})
	}
	if ctx.Err() != nil || out.Stats.Unfinished > 0 || atomic.LoadInt32(&e.lostWorkers) > 0 {
		out.Partial = true
	}
	e.scored = scored
	slices.SortStableFunc(scored, func(a, b Candidate) int {
		//lint:allow floateq ranking needs a total order; exact score equality is precisely when the index tie-break applies
		if a.Score != b.Score {
			if a.Score > b.Score {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.Index, b.Index)
	})
	// The ranking is built in scratch; the result gets its own copy of the
	// top K (nil when nothing scored, as before).
	if k := min(len(scored), e.opts.TopK); k > 0 {
		out.Ranked = make([]Candidate, k)
		copy(out.Ranked, scored)
	}
	out.Threshold = topk.Threshold()
	e.emitTotals(out.Stats)
	return out
}

// emitCandidate replays one candidate's buffered observations, bracketed by
// the sweep-style pair lifecycle events. Durations are deliberately zero:
// the event stream is part of the byte-identical contract.
func (e *engine) emitCandidate(i int, st *candState) {
	sink := e.opts.Observer
	pairName := e.anchor.Name + "/" + st.name
	sink.Event(obs.PairStarted{Pair: pairName, Attempt: 1, Index: i, Total: len(e.slots)})
	st.buf.replay(sink)
	fin := obs.PairFinished{
		Pair: pairName, Attempt: 1, Index: i, Total: len(e.slots),
		Windows: len(st.res.Windows), Partial: st.res.Partial,
		FromCheckpoint: st.replayed,
	}
	if st.err != nil {
		fin.Err = st.err.Error()
	}
	sink.Event(fin)
}

// emitTotals publishes the discovery-level counters once, after the merge.
func (e *engine) emitTotals(s Stats) {
	sink := e.opts.Observer
	if sink == nil {
		return
	}
	// "fleet_size", not "candidates": the obs.Registry sink derives metric
	// names from counter names, and tycos_discovery_candidates_total is the
	// daemon's pre-registered per-outcome family.
	sink.Count("discovery.fleet_size", int64(s.Candidates))
	sink.Count("discovery.screened", int64(s.Screened))
	sink.Count("discovery.pruned", int64(s.Pruned))
	sink.Count("discovery.searched", int64(s.Searched))
	sink.Count("discovery.replayed", int64(s.Replayed))
	sink.Count("discovery.failed", int64(s.Failed))
	sink.Count("discovery.degenerate_windows", int64(s.DegenerateWindows))
}

// eventBuffer is a single-goroutine obs.Sink capturing one candidate's
// observations for ordered replay.
type eventBuffer struct {
	entries []bufEntry
}

type bufEntry struct {
	event   obs.Event
	count   string
	delta   int64
	phase   obs.Phase
	phaseD  int64
	isCount bool
	isPhase bool
}

func (b *eventBuffer) Event(ev obs.Event) { b.entries = append(b.entries, bufEntry{event: ev}) }
func (b *eventBuffer) Count(name string, delta int64) {
	b.entries = append(b.entries, bufEntry{count: name, delta: delta, isCount: true})
}
func (b *eventBuffer) PhaseEnd(p obs.Phase, d time.Duration) {
	b.entries = append(b.entries, bufEntry{phase: p, phaseD: int64(d), isPhase: true})
}

// replay forwards the buffered observations in arrival order.
func (b *eventBuffer) replay(sink obs.Sink) {
	for _, en := range b.entries {
		switch {
		case en.isCount:
			sink.Count(en.count, en.delta)
		case en.isPhase:
			sink.PhaseEnd(en.phase, time.Duration(en.phaseD))
		default:
			sink.Event(en.event)
		}
	}
}
