// Package lahc is a seedflow fixture impersonating the LAHC package: its
// Source is a math/rand-compatible source that callers seed through
// NewSource or re-seed through Source.Seed, both seed sinks.
package lahc

// Source stands in for the lazily seeded acceptor source.
type Source struct{ x0 uint64 }

// NewSource hands its seed to Seed: a sink's own package forwarding a seed
// is plumbing, not a finding.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed restarts the stream.
func (s *Source) Seed(seed int64) { s.x0 = uint64(seed) }

// Int63 and Uint64 make Source a rand.Source64.
func (s *Source) Int63() int64   { return int64(s.Uint64() >> 1) }
func (s *Source) Uint64() uint64 { s.x0++; return s.x0 }
