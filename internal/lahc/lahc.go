// Package lahc implements Late Acceptance Hill-Climbing (Burke & Bykov,
// EJOR 2017), the local-search metaheuristic TYCOS is built on (Section 3.2
// and Algorithm 1 of the paper).
//
// LAHC extends classic hill climbing with a fixed-length history L_h of
// recently accepted objective values: a candidate is accepted when it beats
// either the current solution or a value drawn from the history, which lets
// the search traverse plateaus and mild setbacks. TYCOS uses the "random"
// policy for selecting and updating history entries (Algorithm 1, lines 9
// and 16–18), which is what Acceptor implements.
package lahc

import (
	"math/rand"

	"tycos/internal/freelist"
)

// DefaultHistoryLength is the history size used when none is configured.
const DefaultHistoryLength = 16

// Acceptor encapsulates the LAHC acceptance rule for a maximisation
// objective. The zero value is not usable until Renew sets it up.
type Acceptor struct {
	history []float64
	rng     *rand.Rand
}

// Renew sets a up for a climb from a solution with the given objective
// value: a history of the given length with every slot holding initial, and
// rng to drive the random history policy. Length values below 1 become
// DefaultHistoryLength; rng must be non-nil. Renew reuses a's history storage
// when it is long enough, so a climb loop can keep one acceptor for all its
// climbs.
func (a *Acceptor) Renew(length int, initial float64, rng *rand.Rand) {
	if length < 1 {
		length = DefaultHistoryLength
	}
	if cap(a.history) < length {
		a.history = make([]float64, length)
	}
	a.history = a.history[:length]
	for i := range a.history {
		a.history[i] = initial
	}
	a.rng = rng
}

// Release drops a's history when it is above freelist.MaxBytes, so that an
// acceptor kept in free scratch pins no outsized history; the next Renew
// regrows it.
func (a *Acceptor) Release() {
	if !freelist.Fits[float64](cap(a.history)) {
		a.history = nil
	}
}

// Consider applies the acceptance policies of Algorithm 1 to a candidate
// objective value:
//
//	Policy 1: accept if candidate ≥ history probe or candidate > current.
//	Policy 2: reject otherwise.
//
// The comparison against the history probe is non-strict, following the
// canonical LAHC acceptance of Burke & Bykov: that is what lets the walk
// drift across plateaus, the behaviour the paper relies on ("helpful ...
// when the search needs to escape from plateau situations"). Callers that
// need a stopping signal should treat only strict improvements of the
// returned current value as progress.
//
// After the decision the probed history slot is updated to the (possibly
// new) current value when that improves the slot. It returns the new current
// value and whether the candidate was accepted.
func (a *Acceptor) Consider(current, candidate float64) (newCurrent float64, accepted bool) {
	slot := a.rng.Intn(len(a.history))
	probe := a.history[slot]
	if candidate >= probe || candidate > current {
		current = candidate
		accepted = true
	}
	if current > probe {
		a.history[slot] = current
	}
	return current, accepted
}

// History returns a copy of the current history list (for inspection and
// tests).
func (a *Acceptor) History() []float64 {
	out := make([]float64, len(a.history))
	copy(out, a.history)
	return out
}
