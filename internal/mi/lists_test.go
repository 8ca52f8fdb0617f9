package mi

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"tycos/internal/knn"
)

// listKinds are the data shapes the neighbour lists are checked on:
// continuous data, a tied lattice, duplicate points, differences that
// overflow to +Inf and magnitudes across ~20 orders.
var listKinds = []string{"gaussian", "lattice4", "duplicates", "pm1e300", "lognormal"}

// checkAgainstBrute asserts that every maintained point's neighbour list and
// state equal, bit for bit, a brute scan of the live points sorted by
// (distance, id): the list holds the first nl ∈ [k, min(k+reserve, m−1)]
// of them, far is the last one's distance, and the state is the k best's
// projections, whose larger one is the k-th distance, and the
// closed-interval counts.
func checkAgainstBrute(t testing.TB, label string, inc *Incremental) {
	t.Helper()
	m, k := len(inc.ids), inc.k
	if m <= k {
		return
	}
	type cand struct {
		d  float64
		id int
	}
	all := make([]cand, 0, m)
	for _, id := range inc.ids {
		st := inc.state(id)
		all = all[:0]
		for _, q := range inc.ids {
			if q != id {
				all = append(all, cand{knn.Chebyshev(st.p, inc.state(q).p), q})
			}
		}
		sort.Slice(all, func(a, b int) bool {
			if all[a].d != all[b].d {
				return all[a].d < all[b].d
			}
			return all[a].id < all[b].id
		})
		nl := int(st.nl)
		if hi := min(inc.width(), m-1); nl < k || nl > hi {
			t.Fatalf("%s: id %d: list length %d outside [%d, %d]", label, id, nl, k, hi)
		}
		for s, q := range inc.list(id - inc.base)[:nl] {
			if int(q) != all[s].id {
				t.Fatalf("%s: id %d: list %v, brute %v", label, id, inc.list(id - inc.base)[:nl], all[:nl])
			}
		}
		if st.far != math.Float64bits(all[nl-1].d) {
			t.Fatalf("%s: id %d: far %v, brute %v", label, id, math.Float64frombits(st.far), all[nl-1].d)
		}
		var want ksgState
		for _, c := range all[:k] {
			q := inc.state(c.id).p
			want.dx = max(want.dx, math.Abs(q.X-st.p.X))
			want.dy = max(want.dy, math.Abs(q.Y-st.p.Y))
		}
		for _, c := range all {
			q := inc.state(c.id).p
			if st.p.X-want.dx <= q.X && q.X <= st.p.X+want.dx {
				want.nx++
			}
			if st.p.Y-want.dy <= q.Y && q.Y <= st.p.Y+want.dy {
				want.ny++
			}
		}
		if !sameState(st.ksgState, want) {
			t.Fatalf("%s: id %d: state %+v, brute %+v", label, id, st.ksgState, want)
		}
		if st.radius() != math.Float64bits(all[k-1].d) {
			t.Fatalf("%s: id %d: radius %v, k-th distance %v", label, id, math.Float64frombits(st.radius()), all[k-1].d)
		}
	}
}

// TestReloadStatesMatchBrute pins the bulk recompute: after Reload, every
// point's list and state equal the brute scan's — on every list kind, with
// unsorted, non-contiguous ids, for k ∈ {1, 4, 8} and windows on both sides
// of allPairsMax, on a fresh estimator and on one reused across all of
// them, Reconfigured from k to k.
func TestReloadStatesMatchBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	reused := NewIncremental(DefaultK)
	for _, k := range []int{4, 1, 8} {
		reused.Reconfigure(k)
		for _, m := range []int{40, allPairsMax, 240} {
			for _, kind := range listKinds {
				x, y := windowKinds[kind](rng, m)
				ids := make([]int, m)
				for i, j := range rng.Perm(m) {
					ids[i] = 7 + 3*j // unsorted, with gaps
				}
				label := fmt.Sprintf("%s/m=%d/k=%d", kind, m, k)
				reused.Reload(ids, x, y)
				checkAgainstBrute(t, label, reused)
				checkAgainstBrute(t, label+"/fresh", newBulk(k, ids, x, y))
			}
		}
	}
}

// TestIncrementalListsMatchBrute drives cascaded edge moves of a search
// window — a Reload, then removals and insertions at both ends, through
// the k threshold for small windows — and checks every list and state
// against the brute scan after every single edit, and MI against the batch
// estimate after every move, on every list kind, for k ∈ {1, 4, 8} and
// windows on both sides of allPairsMax.
func TestIncrementalListsMatchBrute(t *testing.T) {
	const n = 500
	for _, kind := range listKinds {
		for _, k := range []int{1, 4, 8} {
			for _, size := range [][2]int{{6, 40}, {110, 170}} {
				minW, maxW := max(size[0], k+1), size[1]
				moves := 50
				if minW > allPairsMax/2 {
					moves = 12
				}
				if testing.Short() {
					moves /= 4
				}
				rng := rand.New(rand.NewSource(int64(k*1000 + minW)))
				x, y := windowKinds[kind](rng, n)
				label := fmt.Sprintf("%s/k=%d/w=%d..%d", kind, k, minW, maxW)
				lo, hi := 200, 200+(minW+maxW)/2 // the window is [lo, hi)
				ids := make([]int, 0, hi-lo)
				for i := lo; i < hi; i++ {
					ids = append(ids, i)
				}
				inc := NewIncremental(k)
				inc.Reload(ids, x[lo:hi], y[lo:hi])
				checkAgainstBrute(t, label+"/reload", inc)
				batch := NewKSG(k, BackendKDTree)
				edit := func(id int, insert bool) {
					if insert {
						inc.Insert(id, x[id], y[id])
					} else {
						inc.Remove(id)
					}
					checkAgainstBrute(t, fmt.Sprintf("%s/edit %d %v", label, id, insert), inc)
				}
				for mv := 0; mv < moves; mv++ {
					nlo := min(max(lo+rng.Intn(9)-4, 0), n-minW)
					nhi := min(max(hi+rng.Intn(9)-4, nlo+minW), nlo+maxW, n)
					for i := lo; i < min(nlo, hi); i++ {
						edit(i, false)
					}
					for i := max(nhi, lo); i < hi; i++ {
						edit(i, false)
					}
					for i := nlo; i < min(lo, nhi); i++ {
						edit(i, true)
					}
					for i := max(hi, nlo); i < nhi; i++ {
						edit(i, true)
					}
					lo, hi = nlo, nhi
					got, err := inc.MI()
					if err != nil {
						t.Fatal(err)
					}
					want, err := batch.Estimate(x[lo:hi], y[lo:hi])
					if err != nil {
						t.Fatal(err)
					}
					if !sameBits(got, want) {
						t.Fatalf("%s/move %d: window [%d,%d): incremental %.17g, batch %.17g", label, mv, lo, hi, got, want)
					}
				}
			}
		}
	}
}

// TestListsFillUnderInserts pins the reserve's upkeep: while a list holds
// every other point it takes each new point, so with no removals since the
// last rebuild every list holds min(k+reserve, m−1) entries — inserting
// one by one from empty, through the k threshold, on every list kind.
func TestListsFillUnderInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, kind := range listKinds {
		for _, k := range []int{1, 4} {
			x, y := windowKinds[kind](rng, 40)
			inc := NewIncremental(k)
			for i := range x {
				inc.Insert(i, x[i], y[i])
				checkAgainstBrute(t, kind, inc)
				if m := inc.Len(); m > k {
					for _, id := range inc.ids {
						if nl := int(inc.state(id).nl); nl != min(inc.width(), m-1) {
							t.Fatalf("%s/k=%d/m=%d: id %d holds %d entries, want %d", kind, k, m, id, nl, min(inc.width(), m-1))
						}
					}
				}
			}
		}
	}
}

// TestPointStateSize pins the compact layout: lists live in their own slab
// and counts are int32, so a point state stays under one 64-byte cache line.
// A wider state slowed slides measurably, and every byte is paid twice per
// slab slot of every pooled estimator.
func TestPointStateSize(t *testing.T) {
	if got := unsafe.Sizeof(pointState{}); got > 56 {
		t.Errorf("pointState is %d bytes, want ≤ 56", got)
	}
}

// TestIncrementalIDRange pins the int32 lists' id contract: ids at the ends
// of the int32 range work, and one past either end panics in Insert and in
// Reload instead of being truncated.
func TestIncrementalIDRange(t *testing.T) {
	for _, base := range []int{math.MaxInt32 - 9, math.MinInt32} {
		inc := NewIncremental(2)
		for i := 0; i < 10; i++ {
			inc.Insert(base+i, float64(i), float64(i*i%7))
		}
		checkAgainstBrute(t, fmt.Sprint(base), inc)
		if !inc.Remove(base) {
			t.Fatalf("base %d: remove failed", base)
		}
		checkAgainstBrute(t, fmt.Sprint(base), inc)
	}
	for _, id := range []int{math.MaxInt32 + 1, math.MinInt32 - 1} {
		mustPanic(t, fmt.Sprintf("Insert(%d)", id), "int32", func() {
			NewIncremental(2).Insert(id, 0, 0)
		})
		mustPanic(t, fmt.Sprintf("Reload(%d)", id), "int32", func() {
			NewIncremental(2).Reload([]int{0, id}, []float64{0, 1}, []float64{0, 1})
		})
	}
}

// TestIncrementalRejectsNonFinite pins the finite-sample contract:
// NewIncrementalFrom returns KSG.Estimate's error on a NaN or ±Inf sample,
// and Insert and Reload panic on one.
func TestIncrementalRejectsNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		x, y := gaussianPair(rng, 40, 0.5)
		x[17] = bad
		_, want := NewKSG(4, BackendKDTree).Estimate(x, y)
		if want == nil || !strings.Contains(want.Error(), "non-finite sample") {
			t.Fatalf("%v: Estimate error %v", bad, want)
		}
		inc, err := NewIncrementalFrom(x, y, 4)
		if err == nil || err.Error() != want.Error() {
			t.Errorf("%v: NewIncrementalFrom = %v, %v; want error %q", bad, inc, err, want)
		}
		mustPanic(t, fmt.Sprintf("Insert(%v)", bad), "non-finite", func() {
			NewIncremental(4).Insert(0, 1, bad)
		})
		ids := make([]int, len(x))
		for i := range ids {
			ids[i] = i
		}
		mustPanic(t, fmt.Sprintf("Reload(%v)", bad), "non-finite", func() {
			NewIncremental(4).Reload(ids, x, y)
		})
	}
	if _, err := NewIncrementalFrom([]float64{1}, []float64{1, 2}, 4); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewIncrementalFrom(nil, nil, 4); !errors.Is(err, ErrTooFewSamples) {
		t.Errorf("empty sample: %v", err)
	}
}

// mustPanic runs f and fails unless it panics with a message containing
// want.
func mustPanic(t *testing.T, label, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
			t.Errorf("%s: recovered %v, want a panic mentioning %q", label, r, want)
		}
	}()
	f()
}

// FuzzIncrementalDifferential replays an insert/remove trace decoded from
// the input: each 3-byte op names an id (0–254) and a sample decoded by
// fuzzSample — lattice values, the extremes of fuzzValues and log-normal
// magnitudes. An op on a live id removes it, on a free id inserts it; id
// 255 Reloads the survivors in place. kb picks k ∈ [1, 8]. After every op,
// MI() must equal KSG.Estimate over the survivors in ascending-id order to
// the last bit, and every list and state must pass the brute check.
func FuzzIncrementalDifferential(f *testing.F) {
	f.Add(uint8(3), []byte("\x00\x01\x02\x01\x03\x04\x02\x05\x06\x03\x07\x08\x04\x09\x0a\x05\x0b\x0c\x06\x0d\x0e\x01\x00\x00\x07\x0f\x0f"))
	f.Add(uint8(0), []byte("\x00\x05\x05\x01\x05\x05\x02\x05\x05\x03\x05\x05\x04\x06\x06\x05\x06\x06\x02\x00\x00\x06\x05\x05\xff\x00\x00\x00\x00\x00"))
	f.Add(uint8(7), []byte("\x00\x84\x85\x01\x85\x84\x02\x86\x87\x03\x87\x86\x04\x88\x89\x05\x89\x88\x06\x8a\x8b\x07\x8b\x8a\x08\x8c\x8d\x09\x8d\x8c\x03\x00\x00\x0a\x8e\x8f"))
	f.Add(uint8(1), []byte("\x00\xc0\xe0\x01\xd0\xf0\x02\xe8\xd8\x03\xff\xc1\x04\xc8\xf8\x05\xd4\xe4\x00\x00\x00\x06\xe0\xc0\xff\x00\x00\x01\x00\x00"))
	f.Fuzz(func(t *testing.T, kb uint8, data []byte) {
		k := 1 + int(kb)%8
		inc := NewIncremental(k)
		xs, ys := map[int]float64{}, map[int]float64{}
		for len(data) >= 3 {
			op, bx, by := data[0], data[1], data[2]
			data = data[3:]
			id := int(op)
			switch _, live := xs[id]; {
			case op == 255:
				ids := make([]int, 0, len(xs))
				for id := range xs {
					ids = append(ids, id)
				}
				sort.Ints(ids)
				var rx, ry []float64
				for _, id := range ids {
					rx, ry = append(rx, xs[id]), append(ry, ys[id])
				}
				inc.Reload(ids, rx, ry)
			case live:
				inc.Remove(id)
				delete(xs, id)
				delete(ys, id)
			default:
				xs[id], ys[id] = fuzzSample(bx), fuzzSample(by)
				inc.Insert(id, xs[id], ys[id])
			}
			checkAgainstBrute(t, fmt.Sprintf("op %d", op), inc)
			got, err := inc.MI()
			if len(xs) <= k {
				if !errors.Is(err, ErrTooFewSamples) {
					t.Fatalf("op %d: %d ≤ k points: MI error %v", op, len(xs), err)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			want, err := batchOnSurvivors(xs, ys, k)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, want) {
				t.Fatalf("op %d: incremental %.17g, batch %.17g", op, got, want)
			}
		}
	})
}
