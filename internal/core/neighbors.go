package core

import "tycos/internal/window"

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
//
// The neighbours come out ordered by (delay, start, end): the loops run the
// delay offset outermost, then the start offset, then the end offset, each
// ascending, and the filters only drop windows. batchScorer.plan relies on
// that order: it takes each delay's windows as one contiguous run, and the
// incremental scorer batches same-delay moves (each delay change forces a
// rebuild).
func neighborhood(w window.Window, base, level int, cons window.Constraints, pruned pruneFlags, buf []window.Window) []window.Window {
	delta := base * level
	offsets := [3]int{-delta, 0, delta}
	out := buf[:0]
	for _, dt := range offsets {
		for _, ds := range offsets {
			if pruned.startBackward && ds < 0 {
				continue
			}
			for _, de := range offsets {
				if ds == 0 && de == 0 && dt == 0 {
					continue
				}
				if pruned.endForward && de > 0 {
					continue
				}
				n := window.Window{Start: w.Start + ds, End: w.End + de, Delay: w.Delay + dt}
				if cons.Feasible(n) {
					out = append(out, n)
				}
			}
		}
	}
	return out
}
