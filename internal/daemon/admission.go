package daemon

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"tycos/internal/core"
	"tycos/internal/faultinject"
	"tycos/internal/obs"
	"tycos/internal/series"
)

// task is one admitted search: the prepared pair and options, the request
// context (cancelled when the client goes away or the request deadline
// expires), and a buffered result channel so the worker never blocks on a
// handler that already left. The telemetry fields carry the request's
// observer fan-out, its trace root (zero when the request is unstamped) and
// the admission timestamp the queue-wait histogram measures from.
type task struct {
	ctx      context.Context
	pair     series.Pair
	opts     core.Options
	jkeyX    string // journal key halves ("" when journaling is off)
	jkeyY    string
	done     chan taskResult
	pairName string
	enqueued time.Time
	sink     obs.Sink
	span     obs.SpanContext
	// disc marks a /v1/discover task; the search fields above are unused
	// then and the result travels on disc.done instead (discovery.go).
	disc *discoverJob
}

// taskResult is what a worker hands back to the waiting handler.
type taskResult struct {
	res core.Result
	err error
}

// admitOutcome classifies one admission attempt.
type admitOutcome int

const (
	admitted admitOutcome = iota
	admitDraining
	admitSaturated
)

// admit tries to enqueue the task without ever blocking: a full queue is an
// admission decision, not a wait. The shared lock orders the attempt against
// Drain's exclusive queue close.
func (s *Server) admit(t *task) admitOutcome {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining.Load() {
		return admitDraining
	}
	select {
	case s.queue <- t:
		obs.SetGauge(s.sink, "queue_depth", int64(len(s.queue)))
		return admitted
	default:
		return admitSaturated
	}
}

// startWorkers launches the fixed worker pool. Each worker survives
// arbitrary task panics: runTask recovers per task, and the loop carries a
// backstop recover so an escaped panic degrades one worker instead of
// killing the process.
func (s *Server) startWorkers() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				if r := recover(); r != nil {
					s.sink.Count("daemon.worker_lost", 1)
				}
			}()
			for t := range s.queue {
				s.runTask(t)
			}
		}()
	}
}

// runTask executes one admitted search end to end: run it (panic-isolated),
// journal a complete result (with retries; a journal that stays broken
// degrades readiness, not the response), and deliver the outcome.
func (s *Server) runTask(t *task) {
	s.inflight.Add(1)
	obs.SetGauge(s.sink, "inflight", s.inflight.Load())
	obs.SetGauge(s.sink, "queue_depth", int64(len(s.queue)))
	if !t.enqueued.IsZero() {
		wait := time.Since(t.enqueued)
		s.queueWait.ObserveDuration(wait)
		if t.span.Valid() && t.sink != nil {
			// The queue wait is its own span under the request root, so a
			// slow trace shows whether time went to queueing or searching.
			t.sink.Event(obs.Traced{
				Span:  t.span.Child("queue.wait"),
				Event: obs.SpanFinished{Name: "queue.wait", DurationNS: int64(wait)},
			})
		}
	}
	defer func() {
		s.inflight.Add(-1)
		obs.SetGauge(s.sink, "inflight", s.inflight.Load())
	}()

	if t.disc != nil {
		s.runDiscoverTask(t)
		return
	}

	res, err := s.searchOne(t)
	if err == nil {
		// Wall-clock timings are the one nondeterministic part of a result;
		// strip them so journal replay and chaos-harness golden comparisons
		// are byte-identical (core.Stats.Deterministic).
		res.Stats = res.Stats.Deterministic()
	}
	if err == nil && !res.Partial && s.journal != nil {
		rerr := s.retry.Do(t.ctx, "daemon/journal", func() error {
			return s.journal.Record(t.jkeyX, t.jkeyY, res)
		})
		if rerr != nil {
			// The search result is still valid — only its durability is
			// gone. Serve it, mark the journal degraded (readyz reports it)
			// and count the loss.
			s.journalOK.Store(false)
			s.sink.Count("daemon.journal_degraded", 1)
		} else {
			s.journalOK.Store(true)
		}
	}
	if err != nil {
		s.sink.Count("daemon.search_failed", 1)
	}
	t.done <- taskResult{res: res, err: err}
}

// searchOne is the panic isolation boundary around one search; the
// faultinject points let the chaos suite panic, fail or stall a search
// without reaching into the core.
func (s *Server) searchOne(t *task) (res core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("daemon: search %s panicked: %v\n%s", t.pairName, r, debug.Stack())
		}
	}()
	if err := faultinject.Fire("daemon/search"); err != nil {
		return core.Result{}, err
	}
	// The per-pair key is built only when a fault is armed.
	if faultinject.Enabled() {
		if err := faultinject.Fire("daemon/search/" + t.pairName); err != nil {
			return core.Result{}, err
		}
	}
	return core.SearchContext(t.ctx, t.pair, t.opts)
}

// Drain performs the graceful shutdown sequence: stop admitting (readyz and
// new searches turn away immediately), let queued and in-flight searches
// finish, flush and close the journal, then return. A second Drain is a
// no-op. If ctx expires first, Drain returns its error with workers still
// running — the caller decides whether to hard-exit.
func (s *Server) Drain(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	obs.SetGauge(s.sink, "draining", 1)
	s.stopSampler()
	s.admitMu.Lock()
	close(s.queue)
	s.admitMu.Unlock()

	done := make(chan struct{})
	go func() {
		defer func() {
			recover() // Wait cannot panic; keep the lint-visible backstop anyway
		}()
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("daemon: drain: %w", ctx.Err())
	}
	if s.journal != nil {
		if err := s.journal.Close(); err != nil {
			return fmt.Errorf("daemon: drain: %w", err)
		}
	}
	return nil
}

// Close is Drain without a deadline, for tests and defer-style cleanup; it
// additionally closes the journal even when a prior Drain already ran. When
// that close is the journal's first (a prior Drain timed out before reaching
// it), its error is the only signal that the final journal bytes may not
// have landed, so it is surfaced rather than swallowed.
func (s *Server) Close() error {
	err := s.Drain(context.Background())
	if s.journal != nil {
		if cerr := s.journal.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("daemon: close journal: %w", cerr)
		}
	}
	return err
}
