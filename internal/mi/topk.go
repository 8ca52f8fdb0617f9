package mi

import (
	"sort"

	"tycos/internal/freelist"
)

// TopK implements the adaptive threshold of Section 6.3.2: it maintains the
// K highest MI values seen so far, and Threshold() reports the current
// acceptance bar — the initial seed value until the list fills, then the
// smallest retained MI.
type TopK struct {
	k    int
	seed float64
	vals []float64
}

// NewTopK returns a tracker that keeps the k highest values, with the given
// initial threshold (the MI of the initial window w₀ per the paper).
func NewTopK(k int, seed float64) *TopK {
	t := new(TopK)
	t.Reset(k, seed)
	return t
}

// Reset empties t and sets it up as NewTopK(k, seed) would, so a tracker
// can be a value inside reusable scratch. It keeps the storage of the
// retained values unless that is above freelist.MaxBytes.
func (t *TopK) Reset(k int, seed float64) {
	if k < 1 {
		k = 1
	}
	t.k, t.seed, t.vals = k, seed, freelist.Trim(t.vals)
}

// Offer records a candidate MI value and reports whether it entered the
// top-K list (i.e. whether it met the current threshold).
func (t *TopK) Offer(v float64) bool {
	if len(t.vals) < t.k {
		t.vals = append(t.vals, v)
		sort.Float64s(t.vals)
		return true
	}
	if v <= t.vals[0] {
		return false
	}
	t.vals[0] = v
	// Restore order: bubble the replaced minimum up.
	for i := 1; i < len(t.vals) && t.vals[i] < t.vals[i-1]; i++ {
		t.vals[i], t.vals[i-1] = t.vals[i-1], t.vals[i]
	}
	return true
}

// Threshold returns the current acceptance bar σ.
func (t *TopK) Threshold() float64 {
	if len(t.vals) < t.k {
		return t.seed
	}
	return t.vals[0]
}

// Values returns the retained values in ascending order.
func (t *TopK) Values() []float64 {
	out := make([]float64, len(t.vals))
	copy(out, t.vals)
	return out
}

// Len returns how many values are currently retained.
func (t *TopK) Len() int { return len(t.vals) }
