package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"tycos/internal/mi"
	"tycos/internal/obs"
	"tycos/internal/series"
	"tycos/internal/synth"
	"tycos/internal/window"
)

// tableRun is one observed search: its result, its event stream and its
// counters.
type tableRun struct {
	res    Result
	events []string
	counts map[string]int64
}

// searchObserved runs SearchTable under a collecting observer.
func searchObserved(t *testing.T, p series.Pair, opts Options, h TableHandle) tableRun {
	t.Helper()
	sink := newCollectSink()
	opts.Observer = sink
	res, err := SearchTable(context.Background(), p, opts, h)
	if err != nil {
		t.Fatal(err)
	}
	evs := make([]string, len(sink.events))
	for i, e := range sink.events {
		evs[i] = fmt.Sprintf("%s%+v", e.Kind(), e)
	}
	return tableRun{res: res, events: evs, counts: sink.counts}
}

// checkTableInvisible compares a bound search with the unbound one: the
// same windows to the bit, the same deterministic Stats, the same events,
// and the estimates conserved: the bound search's mi.ksg_estimates plus its
// score_table_hits equal the unbound search's mi.ksg_estimates, and
// mi_batch is equal.
func checkTableInvisible(t *testing.T, name string, bound, plain tableRun) {
	t.Helper()
	if len(bound.res.Windows) != len(plain.res.Windows) {
		t.Fatalf("%s: %d windows bound, %d unbound", name, len(bound.res.Windows), len(plain.res.Windows))
	}
	for i, w := range bound.res.Windows {
		pw := plain.res.Windows[i]
		if w.Window != pw.Window || math.Float64bits(w.MI) != math.Float64bits(pw.MI) {
			t.Errorf("%s: window %d is %v (%v) bound, %v (%v) unbound", name, i, w.Window, w.MI, pw.Window, pw.MI)
		}
	}
	if b, u := bound.res.Stats.Deterministic(), plain.res.Stats.Deterministic(); b != u {
		t.Errorf("%s: stats differ\n  bound: %+v\nunbound: %+v", name, b, u)
	}
	if !reflect.DeepEqual(bound.events, plain.events) {
		t.Errorf("%s: event stream differs (%d vs %d events)", name, len(bound.events), len(plain.events))
	}
	if _, ok := plain.counts["score_table_hits"]; ok {
		t.Errorf("%s: an unbound search reported score_table_hits", name)
	}
	hits, ok := bound.counts["score_table_hits"]
	if !ok {
		t.Errorf("%s: a bound search reported no score_table_hits", name)
	}
	if got, want := bound.counts["mi.ksg_estimates"]+hits, plain.counts["mi.ksg_estimates"]; got != want {
		t.Errorf("%s: %d estimates + %d table hits = %d, unbound search made %d", name,
			bound.counts["mi.ksg_estimates"], hits, got, want)
	}
	if bound.counts["mi_batch"] != plain.counts["mi_batch"] {
		t.Errorf("%s: mi_batch %d bound, %d unbound", name, bound.counts["mi_batch"], plain.counts["mi_batch"])
	}
}

// TestScoreTableChangesNoResult pins the table's contract: a bound search
// returns the windows, Stats and events of an unbound one, on all four
// variants at one and two restart workers, with a significance correction
// and with a normalization that reads the window's samples, on a cold table
// and on one that searches at other seeds, σ, TopK and SMax have warmed.
// The warm searches must take estimates from the table, or the comparison
// proves nothing.
func TestScoreTableChangesNoResult(t *testing.T) {
	p := parallelTestPair(900)
	for _, v := range []Variant{VariantL, VariantLN, VariantLM, VariantLMN} {
		for _, workers := range []int{1, 2} {
			base := parallelTestOpts()
			base.Variant, base.RestartWorkers = v, workers
			signif, hist := base, base
			signif.SignificanceLevel = 2
			hist.Normalization = mi.NormJointHistogram
			cases := []struct {
				name string
				opts Options
			}{{"default", base}, {"significance-2", signif}, {"joint-histogram", hist}}

			table := NewScoreTable()
			for _, c := range cases {
				name := fmt.Sprintf("%v/workers=%d/%s", v, workers, c.name)
				plain := searchObserved(t, p, c.opts, TableHandle{})
				table.Reset()
				checkTableInvisible(t, name+"/cold", searchObserved(t, p, c.opts, table.Handle(0)), plain)
			}

			table.Reset()
			h := table.Handle(0)
			warmers := []Options{base, base, base, base, base}
			warmers[0].Seed, warmers[1].Seed = 2, 3
			warmers[2].Sigma = 0.4
			warmers[3].TopK = 3
			warmers[4].SMax = 40
			for _, w := range warmers {
				searchObserved(t, p, w, h)
			}
			for _, c := range cases {
				name := fmt.Sprintf("%v/workers=%d/%s/warm", v, workers, c.name)
				bound := searchObserved(t, p, c.opts, h)
				if bound.counts["score_table_hits"] == 0 {
					t.Errorf("%s: the warm table served no estimate", name)
				}
				checkTableInvisible(t, name, bound, searchObserved(t, p, c.opts, TableHandle{}))
			}
		}
	}
}

// TestScoreTableConcurrentSearches runs searches of one pair at several
// seeds through one table from several goroutines at once, each at two
// restart workers, and checks every result against the unbound search. Run
// it under the race detector.
func TestScoreTableConcurrentSearches(t *testing.T) {
	p := parallelTestPair(900)
	opts := parallelTestOpts()
	opts.RestartWorkers = 2
	seeds := []int64{1, 2, 3, 4}
	want := make(map[int64]Result)
	for _, seed := range seeds {
		o := opts
		o.Seed = seed
		res, err := Search(p, o)
		if err != nil {
			t.Fatal(err)
		}
		want[seed] = res
	}
	table := NewScoreTable()
	h := table.Handle(0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				o := opts
				o.Seed = seeds[(g+r)%len(seeds)]
				res, err := SearchTable(context.Background(), p, o, h)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(res.Windows, want[o.Seed].Windows) || res.Stats.Deterministic() != want[o.Seed].Stats.Deterministic() {
					t.Errorf("goroutine %d, seed %d: the bound search differs from the unbound one", g, o.Seed)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := table.Stats(); st.Occupied == 0 {
		t.Errorf("table stats %+v: the searches stored nothing", st)
	}
}

// TestScoreTableRefusesJitter checks that a jittered search binds nothing:
// it returns the unbound search's result, reports no table hits and stores
// no estimate, even on a table that holds the pair's unjittered estimates.
func TestScoreTableRefusesJitter(t *testing.T) {
	p := parallelTestPair(900)
	opts := parallelTestOpts()
	opts.RestartWorkers = 1
	table := NewScoreTable()
	h := table.Handle(0)
	searchObserved(t, p, opts, h)
	before := table.Stats()
	opts.Jitter = 0.01
	bound := searchObserved(t, p, opts, h)
	plain := searchObserved(t, p, opts, TableHandle{})
	if !reflect.DeepEqual(bound.res.Windows, plain.res.Windows) || bound.res.Stats.Deterministic() != plain.res.Stats.Deterministic() {
		t.Errorf("a jittered search differs with a table")
	}
	if _, ok := bound.counts["score_table_hits"]; ok {
		t.Errorf("a jittered search reported score_table_hits = %d", bound.counts["score_table_hits"])
	}
	if !reflect.DeepEqual(bound.counts, plain.counts) {
		t.Errorf("a jittered search's counters differ with a table:\n%v\n%v", bound.counts, plain.counts)
	}
	if after := table.Stats(); after != before {
		t.Errorf("a jittered search changed the table: %+v, then %+v", before, after)
	}
}

// TestScoreTableRefusesOtherK checks that a handle binds only searches at
// the KSG k it was issued for.
func TestScoreTableRefusesOtherK(t *testing.T) {
	p := parallelTestPair(900)
	opts := parallelTestOpts()
	opts.RestartWorkers = 1
	table := NewScoreTable()
	h := table.Handle(0) // mi.DefaultK
	searchObserved(t, p, opts, h)
	opts.K = mi.DefaultK + 2
	bound := searchObserved(t, p, opts, h)
	if _, ok := bound.counts["score_table_hits"]; ok {
		t.Errorf("a k = %d search bound a handle issued for k = %d", opts.K, mi.DefaultK)
	}
	checkPlain := searchObserved(t, p, opts, TableHandle{})
	if !reflect.DeepEqual(bound.res.Windows, checkPlain.res.Windows) {
		t.Errorf("a k = %d search differs with a k = %d handle", opts.K, mi.DefaultK)
	}
}

// TestScoreTableHandleExhaustion issues every handle a table has, so the
// next one resets it and starts over at the first handle id. That handle's
// pair must not read the estimates the old holder of the id stored, and a
// search still holding the stale handle must neither read nor fill the
// table.
func TestScoreTableHandleExhaustion(t *testing.T) {
	a := parallelTestPair(900)
	b := testPair(31, 900, 300, 420, 3)
	opts := parallelTestOpts()
	opts.RestartWorkers = 1
	wantA, err := Search(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := Search(b, opts)
	if err != nil {
		t.Fatal(err)
	}

	table := NewScoreTable()
	ha := table.Handle(0)
	if _, err := SearchTable(context.Background(), a, opts, ha); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < TableHandles; i++ {
		table.Handle(0)
	}
	if !table.Live(ha) || table.Stats().Occupied == 0 {
		t.Fatalf("the table reset before its handles ran out: live %v, %+v", table.Live(ha), table.Stats())
	}
	hb := table.Handle(0) // the first handle after the reset
	if hb.id != ha.id {
		t.Fatalf("handle id %d after the reset, want %d: the test needs the ids to collide", hb.id, ha.id)
	}
	if table.Live(ha) {
		t.Fatal("the old holder of the id is still live")
	}
	if st := table.Stats(); st.Occupied != 0 {
		t.Fatalf("the reset left %d entries", st.Occupied)
	}
	// A search that began before the reset still holds the stale handle:
	// its stores and lookups do nothing, although its key is the id's.
	key, _ := tableKey(ha.id, window.Window{Start: 3, End: 12})
	table.store(ha, key, 1)
	if _, ok := table.lookup(hb, key); ok {
		t.Error("a store through the stale handle reached the id's new holder")
	}
	table.store(hb, key, 2)
	if _, ok := table.lookup(ha, key); ok {
		t.Error("a lookup through the stale handle read the id's new holder's entry")
	}
	table.Reset()
	hb = table.Handle(0)
	// A search starting with the stale handle binds nothing.
	res, err := SearchTable(context.Background(), a, opts, ha)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Windows, wantA.Windows) {
		t.Error("a stale-handle search differs from the unbound one")
	}
	if st := table.Stats(); st.Occupied != 0 {
		t.Errorf("a stale-handle search stored %d entries", st.Occupied)
	}
	// The new holder of the id reads only its own pair's estimates: a cold
	// search, then a warm one, both as unbound.
	for run := 0; run < 2; run++ {
		bound := searchObserved(t, b, opts, hb)
		if !reflect.DeepEqual(bound.res.Windows, wantB.Windows) || bound.res.Stats.Deterministic() != wantB.Stats.Deterministic() {
			t.Errorf("run %d: the pair issued the recycled id reads another pair's estimates", run)
		}
		if run == 1 && bound.counts["score_table_hits"] == 0 {
			t.Error("the second search of the pair took nothing from the table")
		}
	}
}

// TestScoreTableEvictsUnhitFirst pins the replacement policy on one set:
// an empty way first, then the least recent entry no search has hit, and
// only when every entry has been hit, the least recent one.
func TestScoreTableEvictsUnhitFirst(t *testing.T) {
	table := NewScoreTable()
	h := table.Handle(0)
	// Keys of one set: scan windows until tableWays+2 land in set 0's set.
	var keys []uint64
	target := -1
	for start := 0; len(keys) < tableWays+2; start++ {
		key, ok := tableKey(h.id, window.Window{Start: start, End: start + 9})
		if !ok {
			t.Fatal("a small window does not fit the key")
		}
		if target < 0 {
			target = setOf(key)
		}
		if setOf(key) == target {
			keys = append(keys, key)
		}
	}
	for i, key := range keys[:tableWays] {
		table.store(h, key, float64(i))
	}
	if st := table.Stats(); st.Occupied != tableWays || st.Evictions != 0 {
		t.Fatalf("after filling one set: %+v", st)
	}
	// Hit every entry but the two oldest, keys[0] the later one.
	for _, key := range append(append([]uint64(nil), keys[2:tableWays]...), keys[0]) {
		if v, ok := table.lookup(h, key); !ok {
			t.Fatalf("key %x missing", key)
		} else if v != float64(indexOf(keys, key)) {
			t.Fatalf("key %x holds %v", key, v)
		}
	}
	// keys[1] is the one entry never hit: it goes first, although keys[0]
	// is hit longer ago than the rest.
	table.store(h, keys[tableWays], -1)
	if _, ok := table.lookup(h, keys[1]); ok {
		t.Error("the unhit entry survived an eviction")
	}
	if _, ok := table.lookup(h, keys[0]); !ok {
		t.Error("a hit entry went before the unhit one")
	}
	// Now every entry but the newest has been hit, and the newest is the
	// unhit one: it goes next.
	table.store(h, keys[tableWays+1], -2)
	if _, ok := table.lookup(h, keys[tableWays]); ok {
		t.Error("the newest unhit entry survived an eviction")
	}
	if st := table.Stats(); st.Occupied != tableWays || st.Evictions != 2 {
		t.Errorf("after two evictions: %+v", st)
	}
	// All entries hit: the least recent one goes. keys[2] was hit first.
	table.lookup(h, keys[tableWays+1])
	table.store(h, keys[1], -3)
	if _, ok := table.lookup(h, keys[2]); ok {
		t.Error("with every entry hit, the least recent one survived")
	}
}

// TestScoreTableClockKeepsSegmentedLRU drives one set through thousands of
// random lookups and stores, enough to run its recency clock out of stamp
// bits several times, and checks every answer, the occupancy and the
// evictions against a reference segmented LRU that keeps the set's entries
// in recency order: a hit or a store makes an entry the most recent, and a
// full set evicts its least recent unhit entry, or else its least recent.
func TestScoreTableClockKeepsSegmentedLRU(t *testing.T) {
	table := NewScoreTable()
	h := table.Handle(0)
	var keys []uint64
	target := -1
	for start := 0; len(keys) < 3*tableWays; start++ {
		key, _ := tableKey(h.id, window.Window{Start: start, End: start + 11, Delay: -2})
		if target < 0 {
			target = setOf(key)
		}
		if setOf(key) == target {
			keys = append(keys, key)
		}
	}
	type entry struct {
		key uint64
		hit bool
	}
	var ref []entry // least recent first
	find := func(key uint64) int {
		for i, e := range ref {
			if e.key == key {
				return i
			}
		}
		return -1
	}
	touch := func(i int, hit bool) {
		e := ref[i]
		e.hit = e.hit || hit
		ref = append(append(ref[:i:i], ref[i+1:]...), e)
	}
	vals := map[uint64]float64{}
	evictions := 0
	rng := rand.New(rand.NewSource(11))
	const ops = 20000
	for op := 0; op < ops; op++ {
		// A skewed draw, so that some keys are hit often and others rarely.
		key := keys[rng.Intn(1+rng.Intn(len(keys)))]
		if rng.Intn(3) > 0 {
			v, ok := table.lookup(h, key)
			i := find(key)
			if ok != (i >= 0) {
				t.Fatalf("op %d: lookup of key %d hit %v, the reference %v", op, indexOf(keys, key), ok, i >= 0)
			}
			if ok {
				if v != vals[key] {
					t.Fatalf("op %d: key %d returned %v, want %v", op, indexOf(keys, key), v, vals[key])
				}
				touch(i, true)
			}
			continue
		}
		if i := find(key); i >= 0 {
			table.store(h, key, vals[key])
			touch(i, false)
			continue
		}
		vals[key] = float64(op)
		table.store(h, key, vals[key])
		if len(ref) == tableWays {
			victim := 0
			for i, e := range ref {
				if !e.hit {
					victim = i
					break
				}
			}
			ref = append(ref[:victim], ref[victim+1:]...)
			evictions++
		}
		ref = append(ref, entry{key: key})
	}
	if st := table.Stats(); st.Occupied != int64(len(ref)) || st.Evictions != int64(evictions) {
		t.Errorf("table %+v, reference occupancy %d and evictions %d", st, len(ref), evictions)
	}
	if clock := table.stripes[target%tableStripes].clocks[target/tableStripes]; clock > wayStamp+1 {
		t.Errorf("the set's clock reads %d, past its %d stamps", clock, wayStamp+1)
	}
}

// setOf returns the index of key's set.
func setOf(key uint64) int {
	i, _ := slotOf(key)
	return i
}

func indexOf(keys []uint64, key uint64) int {
	for i, k := range keys {
		if k == key {
			return i
		}
	}
	return -1
}

// TestTableKeyPacking checks that distinct windows and handles get distinct
// keys, and that windows the packing cannot hold bypass the table.
func TestTableKeyPacking(t *testing.T) {
	seen := make(map[uint64]string)
	for _, id := range []uint16{1, 2, TableHandles} {
		for _, w := range []window.Window{
			{Start: 0, End: 0, Delay: -4096},
			{Start: 0, End: 127, Delay: 4095},
			{Start: 1<<28 - 1, End: 1<<28 + 126, Delay: 0},
			{Start: 5, End: 14, Delay: -1},
			{Start: 5, End: 14, Delay: 1},
			{Start: 5, End: 15, Delay: 1},
			{Start: 6, End: 15, Delay: 1},
		} {
			key, ok := tableKey(id, w)
			if !ok {
				t.Fatalf("handle %d, %v: does not fit", id, w)
			}
			name := fmt.Sprintf("%d/%v", id, w)
			if prev, dup := seen[key]; dup {
				t.Errorf("%s and %s share key %x", name, prev, key)
			}
			seen[key] = name
		}
	}
	for _, w := range []window.Window{
		{Start: 0, End: 128},
		{Start: 1 << 28, End: 1<<28 + 9},
		{Start: 0, End: 9, Delay: 4096},
		{Start: 0, End: 9, Delay: -4097},
	} {
		if _, ok := tableKey(1, w); ok {
			t.Errorf("%v fits the key", w)
		}
	}
}

// unmix inverts mix: each multiplication by its constant's inverse modulo
// 2⁶⁴, each right xor-shift by folding the shifted bits back in.
func unmix(m uint64) uint64 {
	m *= inverseOdd(0x94d049bb133111eb)
	m = unxorshift(m, 27)
	m *= inverseOdd(0xbf58476d1ce4e5b9)
	return unxorshift(m, 30)
}

// inverseOdd returns c's inverse modulo 2⁶⁴ by Newton's iteration: an odd
// c is its own inverse modulo 8, and each step doubles the correct bits.
func inverseOdd(c uint64) uint64 {
	inv := c
	for i := 0; i < 5; i++ {
		inv *= 2 - c*inv
	}
	return inv
}

// unxorshift returns the x with x ^ x>>s == y: each pass fixes s more of
// the top bits.
func unxorshift(y uint64, s uint) uint64 {
	x := y
	for i := s; i < 64; i += s {
		x = y ^ x>>s
	}
	return x
}

// TestTableMixRoundTrip checks that mix is a bijection, so that a set and
// the remainder a way keeps name exactly one key: unmix recovers every key
// from its mix, and from its set index and way word.
func TestTableMixRoundTrip(t *testing.T) {
	var keys []uint64
	for _, id := range []uint16{1, TableHandles} {
		for _, start := range []int{0, 1<<28 - 1} {
			for _, size := range []int{1, 128} {
				for _, delay := range []int{-4096, -4095, 4095} {
					key, ok := tableKey(id, window.Window{Start: start, End: start + size - 1, Delay: delay})
					if !ok {
						t.Fatalf("handle %d, start %d, size %d, delay %d: does not fit", id, start, size, delay)
					}
					keys = append(keys, key)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		keys = append(keys, rng.Uint64())
	}
	keys = append(keys, 0, math.MaxUint64)
	for _, key := range keys {
		if got := unmix(mix(key)); got != key {
			t.Fatalf("unmix(mix(%#x)) = %#x", key, got)
		}
		i, word := slotOf(key)
		if word&wayValid == 0 || word&wayState != 0 {
			t.Fatalf("key %#x: way word %#x does not carry just the valid bit below the remainder", key, word)
		}
		if got := unmix(uint64(i)<<(64-tableSetBits) | word>>tableSetBits); got != key {
			t.Fatalf("key %#x: set %d and word %#x name %#x", key, i, word, got)
		}
	}
}

// TestScoreTableNoFalseHits fills one set with twice its ways of keys that
// share their handle and delay, and a key whose remainder is 0, and checks
// that every lookup returns its own key's estimate or misses: the ways
// stored last hit, the ones they evicted miss, and none answers for another
// key.
func TestScoreTableNoFalseHits(t *testing.T) {
	table := NewScoreTable()
	h := table.Handle(0)
	var keys []uint64
	target := -1
	for start := 0; len(keys) < 2*tableWays; start++ {
		key, _ := tableKey(h.id, window.Window{Start: start, End: start + 15, Delay: 3})
		if target < 0 {
			target = setOf(key)
		}
		if setOf(key) == target {
			keys = append(keys, key)
		}
	}
	zero := unmix(uint64(target) << (64 - tableSetBits)) // remainder 0
	if _, ok := table.lookup(h, zero); ok {
		t.Fatal("an empty table answered a key whose remainder is 0")
	}
	keys = append(keys, zero)
	for i, key := range keys {
		table.store(h, key, float64(i))
	}
	for i, key := range keys {
		v, ok := table.lookup(h, key)
		if want := i >= len(keys)-tableWays; ok != want {
			t.Errorf("key %d of %d (%#x): hit %v, want %v", i, len(keys), key, ok, want)
		}
		if ok && v != float64(i) {
			t.Errorf("key %d (%#x) returned key %v's estimate", i, key, v)
		}
	}
}

// TestScoreTableReplayHitShare replays a stream shaped like tycosd's on
// daemon-mixed through one table, at one restart worker so that it is
// deterministic: a seed-1 search of each of 16 pairs of 400 samples (LMN,
// SMax 40), then 100 searches at fresh seeds of pairs drawn at random.
// After that warm-up, the table must serve at least hitFloor of the
// window estimates the searches ask for. The table reads 0.867 here; a
// table of 3,072 sets of 16 18-byte ways (864 KiB) reads 0.787 and fails.
// The hits, estimates, evictions and occupancy must also be exactly those
// of segmented LRU, which the table kept as per-way ranks before it kept
// it as per-set clock stamps.
func TestScoreTableReplayHitShare(t *testing.T) {
	const (
		pairs    = 16
		searches = 100
		hitFloor = 0.85

		// The counts of segmented LRU, whether recency is kept as ranks
		// or as stamps of a per-set clock.
		wantHits      = 255267
		wantEstimates = 39092
		wantEvictions = 20994
		wantOccupied  = 61990
	)
	table := NewScoreTable()
	ps := make([]series.Pair, pairs)
	hs := make([]TableHandle, pairs)
	for p := range ps {
		c, err := synth.CorrelatedAR(400, 2, 60, 2, int64(9000+p))
		if err != nil {
			t.Fatal(err)
		}
		ps[p], hs[p] = c.Pair, table.Handle(0)
	}
	search := func(p int, seed int64, sink obs.Sink) {
		opts := Options{SMin: 8, SMax: 40, TDMax: 8, Sigma: 0.3, Variant: VariantLMN, RestartWorkers: 1, Seed: seed, Observer: sink}
		if _, err := SearchTable(context.Background(), ps[p], opts, hs[p]); err != nil {
			t.Fatal(err)
		}
	}
	for p := range ps {
		search(p, 1, nil)
	}
	sink := newCollectSink()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < searches; i++ {
		search(rng.Intn(pairs), int64(2+i), sink)
	}
	hits, estimates := sink.counts["score_table_hits"], sink.counts["mi.ksg_estimates"]
	share := float64(hits) / float64(hits+estimates)
	st := table.Stats()
	t.Logf("%d searches after warm-up: %d table hits, %d estimates, share %.4f; table %+v",
		searches, hits, estimates, share, st)
	if share < hitFloor {
		t.Errorf("the table served %.4f of the estimates after warm-up, want at least %.2f", share, hitFloor)
	}
	// The exact counts pin the replacement policy, not just its yield: a
	// policy that answers as often but keeps other entries moves them.
	if hits != wantHits || estimates != wantEstimates || st.Evictions != wantEvictions || st.Occupied != wantOccupied {
		t.Errorf("%d hits, %d estimates, %d evictions, %d occupied; want %d, %d, %d, %d",
			hits, estimates, st.Evictions, st.Occupied, wantHits, wantEstimates, wantEvictions, wantOccupied)
	}
}

// TestScoreTableProbeAllocs checks that a table's lookups and stores, its
// handles and a reset allocate nothing: the table is allocated once, at its
// fixed size.
func TestScoreTableProbeAllocs(t *testing.T) {
	table := NewScoreTable()
	h := table.Handle(0)
	start := 0
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			key, _ := tableKey(h.id, window.Window{Start: start, End: start + 20, Delay: i%9 - 4})
			if _, ok := table.lookup(h, key); !ok {
				table.store(h, key, float64(i))
			}
			start++
		}
		table.Handle(0)
	})
	if allocs != 0 {
		t.Errorf("%.1f allocations per 64 probes and stores", allocs)
	}
	if allocs := testing.AllocsPerRun(10, table.Reset); allocs != 0 {
		t.Errorf("%.1f allocations per reset", allocs)
	}
}

// TestScoreTableSearchAllocatesNoTable checks that a warm search bound to
// a table allocates no more bytes than an unbound one: the table is
// allocated once, with NewScoreTable, and searches only probe and fill it.
func TestScoreTableSearchAllocatesNoTable(t *testing.T) {
	p := parallelTestPair(900)
	opts := parallelTestOpts()
	opts.RestartWorkers = 1
	table := NewScoreTable()
	h := table.Handle(0)
	bytesOf := func(h TableHandle) uint64 {
		if _, err := SearchTable(context.Background(), p, opts, h); err != nil { // warm
			t.Fatal(err)
		}
		gc := debug.SetGCPercent(-1)
		defer debug.SetGCPercent(gc)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := SearchTable(context.Background(), p, opts, h); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	unbound, bound := bytesOf(TableHandle{}), bytesOf(h)
	t.Logf("a warm search allocates %d bytes unbound, %d bound", unbound, bound)
	if bound > unbound+1024 {
		t.Errorf("a warm bound search allocates %d bytes, an unbound one %d", bound, unbound)
	}
}

// BenchmarkSearchTable times a daemon-shaped search (LMN, 400 samples,
// SMax 40) bound to a score table: cold, on a handle nothing has filled,
// and warm, on one the same search filled before.
func BenchmarkSearchTable(b *testing.B) {
	p := testPair(43, 400, 100, 180, 2)
	opts := Options{SMin: 8, SMax: 40, TDMax: 8, Sigma: 0.3, Variant: VariantLMN, RestartWorkers: 1, Seed: 1}
	ctx := context.Background()
	table := NewScoreTable()
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := SearchTable(ctx, p, opts, table.Handle(0)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		h := table.Handle(0)
		if _, err := SearchTable(ctx, p, opts, h); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := SearchTable(ctx, p, opts, h); err != nil {
				b.Fatal(err)
			}
		}
	})
}
