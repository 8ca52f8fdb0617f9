package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"tycos/internal/window"
)

// TestScoreMemoChangesNoResult pins the memo's contract: with the memo and
// with every lookup sent to the scorer, each variant at one and two restart
// workers returns the same windows and MI bits, the same Stats apart from
// the scorer work counters MIBatch and MIIncremental, the same event stream
// and the same search-level counters. It also checks the memo_hits counter:
// in (0, windows_evaluated], and for the batch variants exactly the
// evaluations that MIBatch does not count.
func TestScoreMemoChangesNoResult(t *testing.T) {
	p := parallelTestPair(900)
	type outcome struct {
		res    Result
		events []string
		counts map[string]int64
	}
	run := func(v Variant, workers int, bypass bool) outcome {
		opts := parallelTestOpts()
		opts.Variant = v
		opts.RestartWorkers = workers
		opts.bypassMemo = bypass
		sink := newCollectSink()
		opts.Observer = sink
		res, err := Search(p, opts)
		if err != nil {
			t.Fatalf("%v workers=%d bypass=%v: %v", v, workers, bypass, err)
		}
		evs := make([]string, len(sink.events))
		for i, e := range sink.events {
			evs[i] = fmt.Sprintf("%s%+v", e.Kind(), e)
		}
		return outcome{res: res, events: evs, counts: sink.counts}
	}
	for _, v := range []Variant{VariantL, VariantLN, VariantLM, VariantLMN} {
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("%v/workers=%d", v, workers)
			memo, plain := run(v, workers, false), run(v, workers, true)
			hits, evals := memo.counts["memo_hits"], int64(memo.res.Stats.WindowsEvaluated)
			if hits == 0 {
				t.Errorf("%s: the memo served no lookup, so the comparison proves nothing", name)
			}
			if hits > evals {
				t.Errorf("%s: memo_hits = %d exceeds windows_evaluated = %d", name, hits, evals)
			}
			// A batch scorer estimates every lookup the memo does not serve.
			if !v.incremental() && int64(memo.res.Stats.MIBatch)+hits != evals {
				t.Errorf("%s: %d estimates + %d memo hits != %d evaluations", name, memo.res.Stats.MIBatch, hits, evals)
			}
			if plain.counts["memo_hits"] != 0 {
				t.Errorf("%s: bypassed memo served %d lookups", name, plain.counts["memo_hits"])
			}
			if len(memo.res.Windows) != len(plain.res.Windows) {
				t.Fatalf("%s: %d windows with the memo, %d without", name, len(memo.res.Windows), len(plain.res.Windows))
			}
			for i, w := range memo.res.Windows {
				pw := plain.res.Windows[i]
				if w.Window != pw.Window || math.Float64bits(w.MI) != math.Float64bits(pw.MI) {
					t.Errorf("%s: window %d is %v (%v) with the memo, %v (%v) without", name, i, w.Window, w.MI, pw.Window, pw.MI)
				}
			}
			ms, ps := memo.res.Stats, plain.res.Stats
			for _, st := range []*Stats{&ms, &ps} {
				st.MIBatch, st.MIIncremental, st.Timing = 0, 0, Timing{}
			}
			if ms != ps {
				t.Errorf("%s: stats differ\n memo: %+v\nplain: %+v", name, ms, ps)
			}
			if !reflect.DeepEqual(memo.events, plain.events) {
				t.Errorf("%s: event stream differs (%d vs %d events)", name, len(memo.events), len(plain.events))
			}
			for _, c := range []string{"windows_evaluated", "restarts", "pruned_directions", "noise_blocks"} {
				if memo.counts[c] != plain.counts[c] {
					t.Errorf("%s: counter %s = %d with the memo, %d without", name, c, memo.counts[c], plain.counts[c])
				}
			}
			work := func(c map[string]int64) int64 { return c["mi_batch"] + c["mi_incremental"] }
			if work(memo.counts) >= work(plain.counts) {
				t.Errorf("%s: the memo saved no estimate (%d vs %d)", name, work(memo.counts), work(plain.counts))
			}
		}
	}
}

// TestScoreMemoSlots checks the table itself: a window is served only
// from its own slot, a colliding window evicts it, and the hash spreads a
// climb's neighbourhood over many slots.
func TestScoreMemoSlots(t *testing.T) {
	m := acquireMemo()
	defer memoPool.Put(m)
	w := window.Window{Start: 100, End: 131, Delay: -2}
	if _, _, ok := m.get(w); ok {
		t.Fatal("an empty memo served a lookup")
	}
	m.put(w, 0.5, 0.25)
	if raw, norm, ok := m.get(w); !ok || raw != 0.5 || norm != 0.25 {
		t.Fatalf("get after put = (%v, %v, %v)", raw, norm, ok)
	}
	// Find a window sharing w's slot.
	var twin window.Window
	for s := 0; ; s++ {
		twin = window.Window{Start: s, End: s + 31, Delay: 0}
		if twin != w && m.slot(twin) == m.slot(w) {
			break
		}
	}
	if _, _, ok := m.get(twin); ok {
		t.Fatal("a colliding window was served another window's scores")
	}
	m.put(twin, 1, 1)
	if _, _, ok := m.get(w); ok {
		t.Error("the evicted window is still served")
	}
	// A level-1 neighbourhood and its centre: 27 windows.
	slots := map[uint64]bool{}
	for _, ds := range []int{-1, 0, 1} {
		for _, de := range []int{-1, 0, 1} {
			for _, dt := range []int{-1, 0, 1} {
				slots[m.slot(window.Window{Start: w.Start + ds, End: w.End + de, Delay: w.Delay + dt})] = true
			}
		}
	}
	if len(slots) < 24 {
		t.Errorf("27 neighbouring windows share %d slots", len(slots))
	}
}
