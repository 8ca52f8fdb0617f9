// Package window implements the time-delay window model of TYCOS
// (Definitions 4.2–4.7 of the paper): windows identified by a start index, an
// end index and an integer delay τ, the feasibility constraints of the
// problem statement, consecutiveness and concatenation (Definitions 6.2–6.3),
// result-set semantics (non-overlapping, subsumption-free), and the
// index-coverage similarity used by the paper's accuracy evaluation
// (Section 8.4 B).
package window

import (
	"fmt"
	"sort"
)

// Window is a time-delay window w = ([Start, End], Delay) over a series pair:
// X is observed on [Start, End] and Y on [Start+Delay, End+Delay]. Both
// bounds are inclusive sample indices.
type Window struct {
	Start int
	End   int
	Delay int
}

// Size returns the number of time steps covered, |w| = End − Start + 1.
func (w Window) Size() int { return w.End - w.Start + 1 }

// String renders the window in the paper's ([ts, te], τ) notation.
func (w Window) String() string {
	return fmt.Sprintf("([%d,%d], τ=%d)", w.Start, w.End, w.Delay)
}

// Valid reports whether the window has ordered bounds and positive size.
func (w Window) Valid() bool { return w.Start >= 0 && w.End >= w.Start }

// Contains reports whether w fully contains o on the X axis with the same
// delay; this is the ⊆ relation of the problem statement's subsumption
// constraint.
func (w Window) Contains(o Window) bool {
	return w.Delay == o.Delay && w.Start <= o.Start && o.End <= w.End
}

// OverlapX returns the number of X-axis indices shared by w and o,
// irrespective of delay.
func (w Window) OverlapX(o Window) int {
	lo := max(w.Start, o.Start)
	hi := min(w.End, o.End)
	if hi < lo {
		return 0
	}
	return hi - lo + 1
}

// Consecutive reports whether o starts right after w ends with the same
// delay (Definition 6.2). w is the "followed" and o the "following" window.
func (w Window) Consecutive(o Window) bool {
	return o.Start == w.End+1 && w.Delay == o.Delay
}

// Concat joins two consecutive windows into one (Definition 6.3). It returns
// an error if the windows are not consecutive.
func (w Window) Concat(o Window) (Window, error) {
	if !w.Consecutive(o) {
		return Window{}, fmt.Errorf("window: %v and %v are not consecutive", w, o)
	}
	return Window{Start: w.Start, End: o.End, Delay: w.Delay}, nil
}

// Constraints captures the feasibility bounds of the TYCOS problem
// statement: window size within [SMin, SMax], |delay| ≤ TDMax, and both the
// X interval and the delayed Y interval inside a series of length N.
type Constraints struct {
	N     int // series length
	SMin  int // minimum window size
	SMax  int // maximum window size
	TDMax int // maximum absolute time delay
}

// Validate reports an error when the constraints themselves are inconsistent.
func (c Constraints) Validate() error {
	switch {
	case c.N <= 0:
		return fmt.Errorf("window: series length %d must be positive", c.N)
	case c.SMin < 2:
		return fmt.Errorf("window: s_min %d must be ≥ 2 (MI needs at least two samples)", c.SMin)
	case c.SMax < c.SMin:
		return fmt.Errorf("window: s_max %d < s_min %d", c.SMax, c.SMin)
	case c.SMin > c.N:
		return fmt.Errorf("window: s_min %d exceeds series length %d", c.SMin, c.N)
	case c.TDMax < 0:
		return fmt.Errorf("window: td_max %d must be non-negative", c.TDMax)
	}
	return nil
}

// Feasible reports whether w satisfies the constraints: size bounds, delay
// bound, and both intervals inside [0, N).
func (c Constraints) Feasible(w Window) bool {
	if !w.Valid() {
		return false
	}
	if s := w.Size(); s < c.SMin || s > c.SMax {
		return false
	}
	if w.Delay > c.TDMax || w.Delay < -c.TDMax {
		return false
	}
	if w.End >= c.N {
		return false
	}
	if ys := w.Start + w.Delay; ys < 0 {
		return false
	}
	if ye := w.End + w.Delay; ye >= c.N {
		return false
	}
	return true
}

// SearchSpaceSize returns the exact number of feasible windows, the quantity
// bounded by Lemma 1. It enumerates start indices and sizes and counts the
// delays valid at each position, matching Eq. (4) when boundary effects are
// ignored.
func (c Constraints) SearchSpaceSize() int64 {
	var total int64
	for start := 0; start+c.SMin-1 < c.N; start++ {
		// min(SMax, N) keeps start+SMax from overflowing for a huge SMax.
		maxEnd := min(start+min(c.SMax, c.N)-1, c.N-1)
		for end := start + c.SMin - 1; end <= maxEnd; end++ {
			// Delay must keep [start+τ, end+τ] within [0, N).
			loTau := -start
			if -c.TDMax > loTau {
				loTau = -c.TDMax
			}
			hiTau := c.N - 1 - end
			if c.TDMax < hiTau {
				hiTau = c.TDMax
			}
			if hiTau >= loTau {
				total += int64(hiTau - loTau + 1)
			}
		}
	}
	return total
}

// ApproxSearchSpaceSize returns the paper's Eq. (4) closed form
// (n − s_min + 1)·(s_max − s_min + 1)·2·td_max, which over-counts boundary
// windows but captures the O(n³) growth.
func (c Constraints) ApproxSearchSpaceSize() int64 {
	return int64(c.N-c.SMin+1) * int64(c.SMax-c.SMin+1) * 2 * int64(c.TDMax)
}

// Scored pairs a window with its (normalized) mutual information.
type Scored struct {
	Window
	MI float64
}

// Set is an ordered collection of accepted windows with the result-set
// semantics of the problem statement: no two members may overlap on the X
// axis and none may contain another.
type Set struct {
	items []Scored
}

// Items returns the accepted windows sorted by start index.
func (s *Set) Items() []Scored {
	out := make([]Scored, len(s.items))
	copy(out, s.items)
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Len returns the number of accepted windows.
func (s *Set) Len() int { return len(s.items) }

// Insert adds w to the set, enforcing the non-overlap/subsumption rule:
// if w overlaps an existing member the one with higher MI survives.
// It reports whether w was inserted.
func (s *Set) Insert(w Scored) bool {
	for _, e := range s.items {
		if e.OverlapX(w.Window) > 0 && e.MI >= w.MI {
			return false // an existing overlapping window is at least as good
		}
	}
	keep := s.items[:0]
	for _, e := range s.items {
		if e.OverlapX(w.Window) == 0 {
			keep = append(keep, e)
		}
	}
	s.items = append(keep, w)
	return true
}

// Covered returns the total number of distinct X indices covered by the set.
func (s *Set) Covered() int {
	total := 0
	for _, e := range s.items {
		total += e.Size()
	}
	return total
}

// Similarity measures how alike two window sets are using the paper's
// criterion ("two windows are considered to be similar if they cover a
// similar range of indices"): it is the Jaccard index of the X-axis index
// sets covered by a and b, in percent.
func Similarity(a, b []Scored) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 100
	}
	ca, cb := coverage(a), coverage(b)
	inter, union := 0, 0
	n := len(ca)
	if len(cb) > n {
		n = len(cb)
	}
	for i := 0; i < n; i++ {
		ia := i < len(ca) && ca[i]
		ib := i < len(cb) && cb[i]
		if ia && ib {
			inter++
		}
		if ia || ib {
			union++
		}
	}
	if union == 0 {
		return 100
	}
	return 100 * float64(inter) / float64(union)
}

func coverage(ws []Scored) []bool {
	maxEnd := 0
	for _, w := range ws {
		if w.End > maxEnd {
			maxEnd = w.End
		}
	}
	cov := make([]bool, maxEnd+1)
	for _, w := range ws {
		for i := w.Start; i <= w.End && i >= 0; i++ {
			cov[i] = true
		}
	}
	return cov
}

// MergeOverlapping combines overlapping windows (any delay) into maximal
// covering windows, as the paper does before comparing Brute Force output
// against the heuristic ("the generated windows are aggregated and the
// overlapped windows are combined together"). The MI of a merged window is
// the maximum MI of its parts.
func MergeOverlapping(ws []Scored) []Scored {
	if len(ws) == 0 {
		return nil
	}
	sorted := make([]Scored, len(ws))
	copy(sorted, ws)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	out := []Scored{sorted[0]}
	for _, w := range sorted[1:] {
		last := &out[len(out)-1]
		if w.Start <= last.End {
			if w.End > last.End {
				last.End = w.End
			}
			if w.MI > last.MI {
				last.MI = w.MI
			}
			continue
		}
		out = append(out, w)
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// MatchRate returns the percentage of windows in ref that have a counterpart
// in cand covering at least half of the smaller of the two windows on the X
// axis — the paper's window-level similarity ("two windows are considered to
// be similar if they cover a similar range of indices"). Two empty sets
// match perfectly; a non-empty ref against an empty cand matches 0%.
func MatchRate(ref, cand []Scored) float64 {
	if len(ref) == 0 {
		return 100
	}
	matched := 0
	for _, r := range ref {
		for _, c := range cand {
			smaller := r.Size()
			if cs := c.Size(); cs < smaller {
				smaller = cs
			}
			if r.OverlapX(c.Window)*2 >= smaller {
				matched++
				break
			}
		}
	}
	return 100 * float64(matched) / float64(len(ref))
}

// SymmetricMatchRate averages MatchRate in both directions.
func SymmetricMatchRate(a, b []Scored) float64 {
	return (MatchRate(a, b) + MatchRate(b, a)) / 2
}

// MergeWithin merges windows whose X-axis gap is at most gap samples into
// covering windows (MergeOverlapping with tolerance): local searches often
// report a contiguous correlated region as two or three fragments, and
// set-level comparisons should treat those as one region, the way the paper
// aggregates Brute Force output.
func MergeWithin(ws []Scored, gap int) []Scored {
	if len(ws) == 0 {
		return nil
	}
	sorted := make([]Scored, len(ws))
	copy(sorted, ws)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	out := []Scored{sorted[0]}
	for _, w := range sorted[1:] {
		last := &out[len(out)-1]
		if w.Start <= last.End+gap+1 {
			if w.End > last.End {
				last.End = w.End
			}
			if w.MI > last.MI {
				last.MI = w.MI
			}
			continue
		}
		out = append(out, w)
	}
	return out
}
