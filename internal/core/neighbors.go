package core

import (
	"cmp"
	"slices"

	"tycos/internal/window"
)

// pruneFlags records which exploration directions the noise theory pruned
// (Section 6.2.2): extending the end forward in time or extending the start
// backward in time grows the window by concatenating a data partition, which
// is exactly the situation Definition 6.4 covers.
type pruneFlags struct {
	endForward, startBackward bool
}

// neighborhood generates the δ-neighbourhood N_level of w (Definitions
// 5.1–5.2): all windows whose start, end and delay each differ from w's by
// −δ, 0 or +δ with δ = base·level, excluding w itself and infeasible
// windows. A pruned endForward drops every neighbour with a larger end index,
// a pruned startBackward drops every neighbour with a smaller start index.
// The windows are appended to buf[:0], whose backing array the result reuses.
func neighborhood(w window.Window, base, level int, cons window.Constraints, pruned pruneFlags, buf []window.Window) []window.Window {
	delta := base * level
	out := buf[:0]
	for _, ds := range [3]int{-delta, 0, delta} {
		for _, de := range [3]int{-delta, 0, delta} {
			for _, dt := range [3]int{-delta, 0, delta} {
				if ds == 0 && de == 0 && dt == 0 {
					continue
				}
				if pruned.endForward && de > 0 {
					continue
				}
				if pruned.startBackward && ds < 0 {
					continue
				}
				n := window.Window{Start: w.Start + ds, End: w.End + de, Delay: w.Delay + dt}
				if cons.Feasible(n) {
					out = append(out, n)
				}
			}
		}
	}
	// Order by delay so the incremental scorer batches same-delay moves
	// (each delay change forces a rebuild). The order is total on distinct
	// windows, so the sort's stability does not matter.
	slices.SortFunc(out, func(a, b window.Window) int {
		if c := cmp.Compare(a.Delay, b.Delay); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		return cmp.Compare(a.End, b.End)
	})
	return out
}
