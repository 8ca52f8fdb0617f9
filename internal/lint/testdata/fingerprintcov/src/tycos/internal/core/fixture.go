// Package core is a fixture stand-in for the real tycos/internal/core: the
// fingerprintcov analyzer matches the Options struct by name and import-path
// suffix, so this tree exercises it without loading the live module.
package core

// Options mirrors the shape of the real search options: four
// result-affecting fields, one result-invariant field that is on the
// analyzer's in-source allow-list (RestartWorkers), and one unexported field
// callers cannot set.
type Options struct {
	SMin  int
	SMax  int
	Sigma float64
	Seed  int64

	RestartWorkers int

	onCandidate func(string)
}
