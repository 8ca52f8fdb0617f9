package core

import "time"

// Observability timings — Stats.Timing phase durations, events-per-second,
// PairFinished durations — are the one sanctioned use of the wall clock in
// this package: they only describe a run, they never influence what the
// search computes. Routing every timing read through these two helpers keeps
// the nodeterm allowlist to a single site per form, so any new clock read
// that creeps into search logic surfaces as a tycoslint finding instead of
// hiding among the timings. Wall-clock budgets never read the clock here:
// they arrive as context deadlines, which (*searcher).checkStop polls.

// clockNow returns the current wall time for observability timings.
func clockNow() time.Time {
	return time.Now() //lint:allow nodeterm observability timing only; never influences search decisions or results
}

// clockSince returns the elapsed wall time since start for observability
// timings.
func clockSince(start time.Time) time.Duration {
	return time.Since(start) //lint:allow nodeterm observability timing only; never influences search decisions or results
}
