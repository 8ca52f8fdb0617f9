package discovery

import (
	"context"
	"fmt"
	"math"

	"tycos/internal/baseline"
)

// screenOutcome records one candidate's pre-screen pass.
type screenOutcome struct {
	// maxR is the best |r| any sliding window achieved at any grid delay.
	maxR float64
	// windows / degenerate count the window positions scored over the delay
	// grid and those the degenerate-window contract skipped (SlideStats'
	// Windows and Degenerate, summed over the grid).
	windows    int
	degenerate int
}

// screener is what every candidate's screen reads: the delay grid and the
// anchor's window moments. Discover builds it once, before the screen
// phase; it is read-only while the screen runs.
type screener struct {
	window int
	delays []int
	anchor baseline.WindowMoments
}

// screenScratch is one screen worker's scratch, reused for every candidate
// the worker screens: the candidate's window moments and the |r| of one
// delay's window positions.
type screenScratch struct {
	cand baseline.WindowMoments
	rs   []float64
}

// newScreener builds the delay grid and the anchor's moments.
func newScreener(anchor []float64, opts Options) *screener {
	s := &screener{window: opts.ScreenWindow, delays: screenDelays(opts.Search.TDMax, opts.ScreenStride)}
	// Reset fails only for a window below two samples or longer than the
	// anchor. Every candidate's length check or own Reset then fails first
	// and reports it, so the screen never reads the unset moments.
	_ = s.anchor.Reset(anchor, s.window)
	return s
}

// screenCandidate runs the cheap sliding-PCC statistic over a coarse delay
// grid and decides whether the candidate earns a confirmation search. The
// screen is a pure function of (anchor, candidate, Options): no search state,
// no randomness, so the prune set is identical for every worker count.
//
// The decision is deliberately one-sided: a candidate is pruned only when its
// best |r| across every tested delay and window position stays below the
// threshold. Degenerate (zero-variance) windows never contribute evidence in
// either direction — see the baseline package's degenerate-window contract.
// Cancellation cuts at the scheduler loop: the screen itself is pure compute.
func (e *engine) screenCandidate(_ context.Context, worker, i int) {
	st := &e.slots[i]
	defer func() {
		if r := recover(); r != nil {
			st.err = fmt.Errorf("discovery: screening %s panicked: %v", st.name, r)
			st.screened = true
			st.pruned = false
		}
	}()
	cand := e.cands[i]
	n := e.anchor.Len()
	if cand.Len() < n {
		n = cand.Len()
	}
	if n < e.opts.ScreenWindow {
		st.err = fmt.Errorf("discovery: candidate %s too short to screen (%d < window %d)", st.name, n, e.opts.ScreenWindow)
		st.screened = true
		return
	}
	out, err := e.screen.screen(&e.scratch[worker], cand.Values[:n])
	if err != nil {
		st.err = err
		st.screened = true
		return
	}
	st.screen = out
	st.screened = true
	st.pruned = out.maxR < e.opts.ScreenThreshold
}

// screen computes the screen statistic for a candidate already cut to the
// aligned length n (at most the anchor's): the maximum sliding-window |r|
// over the delay grid 0, ±stride, …, ±TDMax, where delay τ pairs the
// anchor's window at a with the candidate's at a+τ. The candidate's moments
// are computed once, and each window pair costs one cross-product.
func (s *screener) screen(sc *screenScratch, cand []float64) (screenOutcome, error) {
	var out screenOutcome
	if err := sc.cand.Reset(cand, s.window); err != nil {
		return out, err
	}
	for _, tau := range s.delays {
		a, b, count := delayStarts(len(cand), s.window, tau)
		if count <= 0 {
			continue
		}
		if cap(sc.rs) < count {
			sc.rs = make([]float64, len(cand)-s.window+1)
		}
		rs := sc.rs[:count]
		baseline.AbsR(rs, &s.anchor, a, &sc.cand, b)
		out.windows += count
		for _, r := range rs {
			if math.IsNaN(r) {
				out.degenerate++
			} else if r > out.maxR {
				out.maxR = r
			}
		}
	}
	return out, nil
}

// screenDelays builds the symmetric delay grid 0, ±stride, ±2·stride, … up
// to tdMax. Delay 0 is always present, so an undelayed correlation can never
// be grid-stepped over.
func screenDelays(tdMax, stride int) []int {
	delays := []int{0}
	for tau := stride; tau <= tdMax; tau += stride {
		delays = append(delays, tau, -tau)
	}
	return delays
}

// delayStarts returns where delay tau's window pairs begin on two series of
// aligned length n — the anchor's window at a pairs with the candidate's at
// b = a + tau — and how many size-sample pairs fit while both stay inside
// the series (count ≤ 0: none).
func delayStarts(n, size, tau int) (a, b, count int) {
	if tau >= 0 {
		return 0, tau, n - tau - size + 1
	}
	return -tau, 0, n + tau - size + 1
}
