// Package core is a fixture stand-in for the real tycos/internal/core: the
// fingerprintcov analyzer matches the Options struct by name and import-path
// suffix, so this tree exercises it without loading the live module.
package core

// Cache stands in for the estimator cache.
type Cache struct{}

// Options mirrors the shape of the real search options: four
// result-affecting fields, two result-invariant fields that are on the
// analyzer's in-source allow-list (RestartWorkers, EstimatorCache), and one
// unexported field callers cannot set.
type Options struct {
	SMin  int
	SMax  int
	Sigma float64
	Seed  int64

	RestartWorkers int
	EstimatorCache *Cache

	onCandidate func(string)
}
