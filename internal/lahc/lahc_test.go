package lahc

import (
	"math"
	"math/rand"
	"testing"

	"tycos/internal/freelist"
)

func TestAcceptorBasicPolicies(t *testing.T) {
	var a Acceptor
	a.Renew(4, 0.0, rand.New(rand.NewSource(1)))
	// Better candidate is always accepted (Policy 1, current branch).
	cur, ok := a.Consider(0.0, 0.5)
	if !ok || cur != 0.5 {
		t.Fatalf("better candidate rejected: cur=%v ok=%v", cur, ok)
	}
	// Worse-than-everything candidate is rejected (Policy 2): history is
	// all ≥ 0, candidate −1 beats nothing.
	cur, ok = a.Consider(cur, -1)
	if ok || cur != 0.5 {
		t.Fatalf("hopeless candidate accepted: cur=%v ok=%v", cur, ok)
	}
}

func TestAcceptorLateAcceptance(t *testing.T) {
	// A candidate worse than current but better than a stale history value
	// must be acceptable — that is the "late acceptance" behaviour.
	rng := rand.New(rand.NewSource(2))
	var a Acceptor
	a.Renew(1, 0.0, rng) // single slot: probe is deterministic
	// Current jumps to 10, history slot becomes 10 after the update rule.
	cur, _ := a.Consider(0, 10)
	if cur != 10 {
		t.Fatal("setup failed")
	}
	// History now holds 10; candidate 5 beats neither current nor probe.
	if _, ok := a.Consider(cur, 5); ok {
		t.Error("candidate below history and current must be rejected")
	}
	// Fresh acceptor with stale low history: candidate below current but
	// above probe is accepted.
	var b Acceptor
	b.Renew(1, 1.0, rng)
	if _, ok := b.Consider(10, 5); !ok {
		t.Error("late acceptance: candidate above stale history must be accepted")
	}
}

func TestAcceptorHistoryUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var a Acceptor
	a.Renew(8, 0, rng)
	for i := 0; i < 100; i++ {
		cur, _ := a.Consider(float64(i), float64(i+1))
		if cur != float64(i+1) {
			t.Fatal("monotone improvements must always be accepted")
		}
	}
	for _, h := range a.History() {
		if h < 0 {
			t.Error("history must never regress below initial")
		}
	}
	a.Renew(8, 42, rng)
	for _, h := range a.History() {
		if h != 42 {
			t.Error("Renew must refill history")
		}
	}
}

func TestAcceptorDefaultLength(t *testing.T) {
	var a Acceptor
	a.Renew(0, 1, rand.New(rand.NewSource(4)))
	if len(a.History()) != DefaultHistoryLength {
		t.Errorf("history length = %d", len(a.History()))
	}
}

// TestRenewMatchesFreshAcceptor checks that a renewed acceptor, whatever it
// held before, walks exactly as a zero acceptor renewed once does: same
// history, same decisions from the same seed. Renewing at the same or a
// shorter length reuses the history; a longer one regrows it.
func TestRenewMatchesFreshAcceptor(t *testing.T) {
	var reused Acceptor
	for _, length := range []int{8, 8, 3, 0, 20} {
		var fresh Acceptor
		fresh.Renew(length, 0.5, rand.New(rand.NewSource(5)))
		reused.Renew(length, 0.5, rand.New(rand.NewSource(5)))
		for i := 0; i < 200; i++ {
			cur := float64(i%7) / 7
			cand := float64((i*5)%11) / 11
			f, fok := fresh.Consider(cur, cand)
			r, rok := reused.Consider(cur, cand)
			if f != r || fok != rok {
				t.Fatalf("length %d, step %d: reused acceptor decided (%v, %v), fresh one (%v, %v)", length, i, r, rok, f, fok)
			}
		}
		if got, want := reused.History(), fresh.History(); len(got) != len(want) {
			t.Fatalf("length %d: reused history has %d slots, fresh one %d", length, len(got), len(want))
		} else {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("length %d: history slot %d is %v, want %v", length, i, got[i], want[i])
				}
			}
		}
	}
	var warm Acceptor
	warm.Renew(8, 0, rand.New(rand.NewSource(6)))
	rng := rand.New(rand.NewSource(6))
	if n := testing.AllocsPerRun(10, func() { warm.Renew(8, 1, rng) }); n != 0 {
		t.Errorf("renewing at the same length allocates %v times, want 0", n)
	}
}

func TestLAHCEscapesPlateau(t *testing.T) {
	// A flat objective with a single peak: plain hill climbing with strict
	// improvement stalls; LAHC's acceptance (candidate > probe drawn from a
	// history seeded below the plateau) lets the walk drift across.
	obj := func(x int) float64 {
		if x == 50 {
			return 2
		}
		return 1 // plateau
	}
	rng := rand.New(rand.NewSource(7))
	pos := 0
	var a Acceptor
	a.Renew(8, 0, rng) // history below the plateau level
	cur := obj(pos)
	reached := false
	for steps := 0; steps < 50000; steps++ {
		// Propose a random neighbour ±1.
		next := pos + 1
		if rng.Intn(2) == 0 && pos > 0 {
			next = pos - 1
		}
		cand := obj(next)
		newCur, ok := a.Consider(cur, cand)
		if ok {
			pos = next
			cur = newCur
		}
		if pos == 50 {
			reached = true
			break
		}
	}
	if !reached {
		t.Error("LAHC failed to traverse the plateau to the peak")
	}
	if math.IsNaN(cur) {
		t.Error("objective corrupted")
	}
}

// TestReleaseDropsOutsizedHistory checks that Release keeps a history
// within the retention bound, drops a longer one, and that the acceptor
// renews as before either way.
func TestReleaseDropsOutsizedHistory(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		length int
		kept   bool
	}{{DefaultHistoryLength, true}, {freelist.MaxBytes/8 + 1, false}} {
		var a Acceptor
		a.Renew(tc.length, 0.5, rng)
		a.Release()
		if kept := a.history != nil; kept != tc.kept {
			t.Errorf("length %d: history kept %v, want %v", tc.length, kept, tc.kept)
		}
		a.Renew(tc.length, 0.25, rng)
		if h := a.History(); len(h) != tc.length || h[0] != 0.25 {
			t.Errorf("length %d: renewed history has %d slots starting %v", tc.length, len(h), h[0])
		}
	}
}
