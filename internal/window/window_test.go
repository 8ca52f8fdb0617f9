package window

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWindowBasics(t *testing.T) {
	w := Window{Start: 3, End: 7, Delay: 2}
	if w.Size() != 5 {
		t.Errorf("size = %d", w.Size())
	}
	if !w.Valid() {
		t.Error("valid window reported invalid")
	}
	if (Window{Start: 5, End: 4}).Valid() {
		t.Error("reversed window reported valid")
	}
	if w.String() != "([3,7], τ=2)" {
		t.Errorf("String = %q", w.String())
	}
}

func TestContainsAndOverlap(t *testing.T) {
	outer := Window{0, 10, 1}
	inner := Window{2, 5, 1}
	if !outer.Contains(inner) || outer.Contains(Window{2, 5, 0}) {
		t.Error("Contains must respect delay")
	}
	if inner.Contains(outer) {
		t.Error("inner cannot contain outer")
	}
	if got := outer.OverlapX(Window{8, 15, -3}); got != 3 {
		t.Errorf("overlap = %d, want 3", got)
	}
	if got := outer.OverlapX(Window{11, 15, 0}); got != 0 {
		t.Errorf("disjoint overlap = %d", got)
	}
}

func TestConsecutiveConcat(t *testing.T) {
	a := Window{0, 4, 2}
	b := Window{5, 9, 2}
	if !a.Consecutive(b) {
		t.Fatal("a,b should be consecutive")
	}
	if a.Consecutive(Window{5, 9, 1}) {
		t.Error("different delay cannot be consecutive")
	}
	if a.Consecutive(Window{6, 9, 2}) {
		t.Error("gap cannot be consecutive")
	}
	c, err := a.Concat(b)
	if err != nil || c != (Window{0, 9, 2}) {
		t.Errorf("concat = %v, %v", c, err)
	}
	if _, err := b.Concat(a); err == nil {
		t.Error("reverse concat must fail")
	}
}

func TestConstraintsValidate(t *testing.T) {
	good := Constraints{N: 100, SMin: 3, SMax: 40, TDMax: 10}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Constraints{
		{N: 0, SMin: 3, SMax: 4, TDMax: 1},
		{N: 10, SMin: 1, SMax: 4, TDMax: 1},
		{N: 10, SMin: 5, SMax: 4, TDMax: 1},
		{N: 10, SMin: 20, SMax: 30, TDMax: 1},
		{N: 10, SMin: 3, SMax: 4, TDMax: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d should be invalid: %+v", i, c)
		}
	}
}

func TestFeasible(t *testing.T) {
	c := Constraints{N: 20, SMin: 3, SMax: 6, TDMax: 4}
	cases := []struct {
		w    Window
		want bool
	}{
		{Window{0, 2, 0}, true},
		{Window{0, 1, 0}, false},   // too small
		{Window{0, 6, 0}, false},   // too big
		{Window{0, 2, 5}, false},   // delay beyond bound
		{Window{0, 2, -1}, false},  // delayed Y before start
		{Window{15, 19, 0}, true},  // at series tail
		{Window{15, 19, 1}, false}, // delayed Y past end
		{Window{17, 19, -4}, true},
		{Window{18, 22, 0}, false}, // X past end
	}
	for _, cse := range cases {
		if got := c.Feasible(cse.w); got != cse.want {
			t.Errorf("Feasible(%v) = %v, want %v", cse.w, got, cse.want)
		}
	}
}

func TestSearchSpaceSizeMatchesEnumeration(t *testing.T) {
	for _, sMax := range []int{8, 40, math.MaxInt} {
		c := Constraints{N: 40, SMin: 3, SMax: sMax, TDMax: 5}
		var brute int64
		for s := 0; s < c.N; s++ {
			for e := s; e < c.N; e++ {
				for tau := -c.TDMax; tau <= c.TDMax; tau++ {
					if c.Feasible(Window{s, e, tau}) {
						brute++
					}
				}
			}
		}
		if got := c.SearchSpaceSize(); got != brute {
			t.Errorf("SMax=%d: SearchSpaceSize = %d, brute enumeration = %d", sMax, got, brute)
		}
	}
}

func TestApproxSearchSpaceMatchesPaperExample(t *testing.T) {
	// Section 5.2: n=9000, s_max=400, s_min=20, td_max=20 → 136,870,440.
	c := Constraints{N: 9000, SMin: 20, SMax: 400, TDMax: 20}
	if got := c.ApproxSearchSpaceSize(); got != 136870440 {
		t.Errorf("Eq.(4) count = %d, want 136870440", got)
	}
}

func TestSetInsertNonOverlap(t *testing.T) {
	var s Set
	if !s.Insert(Scored{Window{0, 5, 0}, 0.5}) {
		t.Fatal("first insert must succeed")
	}
	// Overlapping, weaker window is rejected.
	if s.Insert(Scored{Window{3, 8, 0}, 0.4}) {
		t.Error("weaker overlapping window must be rejected")
	}
	// Overlapping, stronger window replaces.
	if !s.Insert(Scored{Window{4, 9, 1}, 0.9}) {
		t.Error("stronger overlapping window must replace")
	}
	items := s.Items()
	if len(items) != 1 || items[0].MI != 0.9 {
		t.Fatalf("set items = %+v", items)
	}
	// Disjoint window coexists.
	s.Insert(Scored{Window{20, 25, 0}, 0.3})
	if s.Len() != 2 || s.Covered() != 12 {
		t.Errorf("len=%d covered=%d", s.Len(), s.Covered())
	}
}

func TestSetInvariantProperty(t *testing.T) {
	// After arbitrary insertions, no two set members overlap on X.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Set
		for i := 0; i < 60; i++ {
			start := rng.Intn(200)
			size := 1 + rng.Intn(30)
			s.Insert(Scored{Window{start, start + size, rng.Intn(9) - 4}, rng.Float64()})
		}
		items := s.Items()
		for i := 0; i < len(items); i++ {
			for j := i + 1; j < len(items); j++ {
				if items[i].OverlapX(items[j].Window) > 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSimilarity(t *testing.T) {
	a := []Scored{{Window{0, 9, 0}, 1}}
	if got := Similarity(a, a); got != 100 {
		t.Errorf("self similarity = %v", got)
	}
	b := []Scored{{Window{5, 14, 0}, 1}}
	got := Similarity(a, b) // intersection 5, union 15
	if got < 33.2 || got > 33.4 {
		t.Errorf("similarity = %v, want ≈33.3", got)
	}
	if Similarity(nil, nil) != 100 {
		t.Error("two empty sets are identical")
	}
	if Similarity(a, nil) != 0 {
		t.Error("empty vs non-empty should be 0")
	}
}

func TestMergeOverlapping(t *testing.T) {
	in := []Scored{
		{Window{10, 20, 0}, 0.3},
		{Window{0, 5, 0}, 0.2},
		{Window{15, 30, 1}, 0.8},
		{Window{3, 7, 0}, 0.1}, // overlaps [0,5] → merged
	}
	out := MergeOverlapping(in)
	if len(out) != 2 {
		t.Fatalf("merged to %d windows: %+v", len(out), out)
	}
	if out[0].Start != 0 || out[0].End != 7 {
		t.Errorf("first merged = %v", out[0].Window)
	}
	if out[1].Start != 10 || out[1].End != 30 || out[1].MI != 0.8 {
		t.Errorf("second merged = %+v", out[1])
	}
	if MergeOverlapping(nil) != nil {
		t.Error("empty merge should be nil")
	}
}

func TestMatchRate(t *testing.T) {
	ref := []Scored{{Window{0, 99, 0}, 1}, {Window{200, 299, 0}, 1}}
	// Fragments inside the reference regions still count as matches.
	cand := []Scored{{Window{20, 60, 2}, 1}, {Window{210, 230, 0}, 1}}
	if got := MatchRate(ref, cand); got != 100 {
		t.Errorf("fragment match rate = %v, want 100", got)
	}
	if got := MatchRate(ref, nil); got != 0 {
		t.Errorf("empty candidate rate = %v", got)
	}
	if got := MatchRate(nil, cand); got != 100 {
		t.Errorf("empty reference rate = %v", got)
	}
	// A candidate far away matches nothing.
	if got := MatchRate(ref, []Scored{{Window{500, 520, 0}, 1}}); got != 0 {
		t.Errorf("distant candidate rate = %v", got)
	}
	// Symmetric rate penalises extra junk windows in either set.
	junky := append([]Scored{}, cand...)
	junky = append(junky, Scored{Window{700, 720, 0}, 1})
	sym := SymmetricMatchRate(ref, junky)
	if sym >= 100 || sym <= 50 {
		t.Errorf("symmetric rate = %v, want (50,100)", sym)
	}
}

func TestMergeWithin(t *testing.T) {
	in := []Scored{
		{Window{0, 10, 0}, 0.4},
		{Window{14, 30, 1}, 0.6}, // gap 3 ≤ 5 → merged
		{Window{50, 60, 0}, 0.2}, // gap 19 → separate
	}
	out := MergeWithin(in, 5)
	if len(out) != 2 {
		t.Fatalf("merged to %d: %+v", len(out), out)
	}
	if out[0].Start != 0 || out[0].End != 30 || out[0].MI != 0.6 {
		t.Errorf("first merged = %+v", out[0])
	}
	if MergeWithin(nil, 3) != nil {
		t.Error("empty input must merge to nil")
	}
	// gap 0 behaves like MergeOverlapping plus adjacency.
	adj := MergeWithin([]Scored{{Window{0, 4, 0}, 1}, {Window{5, 9, 0}, 1}}, 0)
	if len(adj) != 1 || adj[0].End != 9 {
		t.Errorf("adjacent merge = %+v", adj)
	}
}
