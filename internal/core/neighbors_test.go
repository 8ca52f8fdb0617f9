package core

import (
	"cmp"
	"slices"
	"testing"

	"tycos/internal/window"
)

// TestNeighborhoodOrder checks neighborhood against its definition: every
// window whose start, end and delay differ from the centre's by −δ, 0 or +δ,
// less the centre, the pruned directions and the infeasible windows, sorted
// by (delay, start, end) — the order batchScorer.plan relies on. Centres sit
// in the middle of the space and against each constraint, at several levels
// and under all four prune-flag combinations.
func TestNeighborhoodOrder(t *testing.T) {
	cons := window.Constraints{N: 200, SMin: 8, SMax: 40, TDMax: 6}
	centres := []window.Window{
		{Start: 100, End: 119, Delay: 0}, // interior
		{Start: 2, End: 11, Delay: -1},   // near the start and SMin
		{Start: 150, End: 189, Delay: 5}, // near the end, SMax and TDMax
		{Start: 60, End: 79, Delay: -6},  // at −TDMax
		{Start: 170, End: 193, Delay: 4}, // delayed end near N
	}
	var buf []window.Window
	for _, w := range centres {
		for _, base := range []int{1, 2} {
			for level := 1; level <= 4; level++ {
				for _, pruned := range []pruneFlags{{}, {endForward: true}, {startBackward: true}, {true, true}} {
					delta := base * level
					var want []window.Window
					for ds := -delta; ds <= delta; ds += delta {
						for de := -delta; de <= delta; de += delta {
							for dt := -delta; dt <= delta; dt += delta {
								n := window.Window{Start: w.Start + ds, End: w.End + de, Delay: w.Delay + dt}
								if n == w || pruned.endForward && de > 0 || pruned.startBackward && ds < 0 || !cons.Feasible(n) {
									continue
								}
								want = append(want, n)
							}
						}
					}
					slices.SortFunc(want, func(a, b window.Window) int {
						if c := cmp.Compare(a.Delay, b.Delay); c != 0 {
							return c
						}
						if c := cmp.Compare(a.Start, b.Start); c != 0 {
							return c
						}
						return cmp.Compare(a.End, b.End)
					})
					buf = neighborhood(w, base, level, cons, pruned, buf)
					if !slices.Equal(buf, want) {
						t.Errorf("centre %+v, δ=%d·%d, pruned %+v:\n got %v\nwant %v", w, base, level, pruned, buf, want)
					}
				}
			}
		}
	}
}
