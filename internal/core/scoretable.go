package core

import (
	"sync"
	"sync/atomic"

	"tycos/internal/mi"
	"tycos/internal/window"
)

// The score table: raw KSG estimates shared across searches. A service that
// searches the same stored pair again and again (another seed, σ, TopK or
// SMax) re-estimates mostly windows an earlier search already estimated.
// The score memo (memo.go) cannot see them: it lives and dies with one
// restart segment. A ScoreTable is one fixed-size, concurrency-safe table
// that every search bound to it reads and fills, keyed by (pair handle,
// window); the handle names one pair's data at one KSG k.
//
// Only the batch scorer's estimates enter it: windows of at most
// mi.KernelServes samples, which the packed key can hold. An incremental
// variant's larger windows still move their estimators, so the estimator
// positions and the MIIncremental and rebuild counts follow the unbound
// sequence.
//
// The table is invisible in results and Stats. A raw estimate is a pure
// function of the window's samples and k, so a hit returns the bits a fresh
// estimate would give, and it counts as the batch estimate it replaces
// (Stats.MIBatch). Only the mi.* counters see fewer estimates; a bound
// search reports the estimates the table served as score_table_hits.
//
// Sizing: 4,096 sets of 24 ways, 1.5 MiB in all. A way is one word beside
// its 8-byte estimate. The packed key is mixed by a bijection on 64 bits;
// the mixed key's top 12 bits pick the set, and the word holds the other 52
// (the remainder) above a valid bit, a hit bit and the way's 10-bit recency
// stamp. A set and a remainder name exactly one key, so a hit never returns
// another window's estimate. Share of the lookups a table answered on a
// replay of daemon-mixed's request stream (16 pairs of 400 samples, LMN,
// SMax 40, fresh seeds), over 400 searches after 116 of warm-up:
//
//	sets × ways   bytes      answered
//	4,096 × 16    1 MiB      89.2 %
//	4,096 × 20    1.25 MiB   94.0 %
//	8,192 × 12    1.5 MiB    94.9 %
//	4,096 × 24    1.5 MiB    95.9 %
//	8,192 × 16    2 MiB      96.7 %
//
// An unbounded table would answer 96.9 %. tycosd's peak RSS, not the hit
// curve, sets the bytes: the GC's heap goal counts the live table, so it
// costs about twice its bytes. Over the 1 MiB table, daemon-mixed's
// peak_rss_mb read +6–7 % at 1.5 MiB and +13–14.5 % at 2 MiB, past the
// benchmark's 10 % bound; 2 MiB mapped outside the heap still read +13 %
// (see DESIGN, "The score table"). LFU, RRIP and a doorkeeper filter all
// landed within a point of segmented LRU, so the bytes go to ways, not
// policy. Segmented LRU evicts
// the entries no search has hit before the ones it has: a climb's one-off
// windows make most of the stream, and they would otherwise push out the
// windows every search of the pair passes through.
const (
	tableWays    = 24
	tableSetBits = 12
	tableSets    = 1 << tableSetBits
	tableStripes = 256 // mutexes; set i is guarded by stripe i % tableStripes

	// TableHandles is the number of handles a table issues before it has to
	// reset: the packed key holds a 16-bit handle id, issued from 1.
	TableHandles = 1<<16 - 1

	// A way's word: the mixed key's remainder in bits 12–63, then wayValid,
	// wayHit (set once a search has hit the entry) and the entry's recency
	// stamp in bits 0–9: its set's clock when a search last hit or stored
	// it. An empty way is 0; the valid bit keeps an entry whose remainder is
	// 0 apart from it. The hit bit sits right above the stamp, so the way
	// whose word&wayState is least is the one to evict (see store).
	wayValid = 1 << 11
	wayHit   = 1 << 10
	wayStamp = wayHit - 1
	wayState = wayHit | wayStamp

	setsPerStripe = tableSets / tableStripes
)

// tableSet is one set: each way's word, and its estimate.
type tableSet struct {
	words [tableWays]uint64
	vals  [tableWays]float64
}

// tableStripe is one stripe's mutex and the recency clocks of the sets it
// guards (set i's is clocks[i/tableStripes]), on a cache line of its own:
// the clocks fill what was the mutex's padding, so a probe that takes the
// lock has its set's clock at hand.
type tableStripe struct {
	sync.Mutex
	clocks [setsPerStripe]uint16
	_      [64 - 8 - 2*setsPerStripe]byte
}

// ScoreTable is a fixed-size, concurrency-safe table of raw KSG estimates,
// shared by the searches bound to it through SearchTable. It is allocated
// once and reused, never grown; NewScoreTable documents its size.
type ScoreTable struct {
	sets    []tableSet
	stripes [tableStripes]tableStripe

	// handleMu orders handle issuance and Reset. epoch names the handles
	// issued since the last Reset; it changes only while every stripe is
	// held, so a probe or store that checks it under its stripe never
	// touches an entry of another epoch. next is the next handle to issue.
	handleMu sync.Mutex
	epoch    atomic.Uint32
	next     uint32

	occupied  atomic.Int64
	evictions atomic.Int64
}

// TableHandle names one pair's data at one KSG k in a ScoreTable. The zero
// handle binds nothing.
type TableHandle struct {
	t     *ScoreTable
	id    uint16
	k     int
	epoch uint32
}

// TableStats is a table's fixed capacity in entries, its occupied entries
// and the entries evicted since it was allocated.
type TableStats struct {
	Capacity  int   `json:"capacity"`
	Occupied  int64 `json:"occupied"`
	Evictions int64 `json:"evictions"`
}

// NewScoreTable allocates an empty table of tableSets×tableWays entries
// (1.5 MiB).
func NewScoreTable() *ScoreTable {
	return &ScoreTable{sets: make([]tableSet, tableSets), next: 1}
}

// Handle issues a fresh handle for one pair's data at KSG k (k ≤ 0 means
// mi.DefaultK). The caller must give each distinct pair of series values its
// own handle, and may use a handle only while the values it names stay the
// same. A handle is never issued twice between resets; when all are issued,
// Handle resets the table first, so no key can name two pairs.
func (t *ScoreTable) Handle(k int) TableHandle {
	if k <= 0 {
		k = mi.DefaultK
	}
	t.handleMu.Lock()
	defer t.handleMu.Unlock()
	if t.next > TableHandles {
		t.resetLocked()
	}
	h := TableHandle{t: t, id: uint16(t.next), k: k, epoch: t.epoch.Load()}
	t.next++
	return h
}

// Live reports whether h was issued by t since its last reset. A stale
// handle binds nothing: its searches neither read nor fill the table.
func (t *ScoreTable) Live(h TableHandle) bool {
	return h.t == t && h.epoch == t.epoch.Load()
}

// Reset empties the table and makes every handle it issued stale.
func (t *ScoreTable) Reset() {
	t.handleMu.Lock()
	defer t.handleMu.Unlock()
	t.resetLocked()
}

// resetLocked is Reset with handleMu held. A table no search has filled
// keeps its pages untouched.
func (t *ScoreTable) resetLocked() {
	for i := range t.stripes {
		t.stripes[i].Lock()
	}
	if t.occupied.Load() > 0 {
		clear(t.sets)
		for i := range t.stripes {
			t.stripes[i].clocks = [setsPerStripe]uint16{}
		}
		t.occupied.Store(0)
	}
	t.epoch.Add(1)
	t.next = 1
	for i := range t.stripes {
		t.stripes[i].Unlock()
	}
}

// Stats returns the table's capacity, occupancy and evictions.
func (t *ScoreTable) Stats() TableStats {
	return TableStats{Capacity: tableSets * tableWays, Occupied: t.occupied.Load(), Evictions: t.evictions.Load()}
}

// tableKey packs a handle and a window into a key: handle 16 bits, start 28,
// size−1 7, delay+4096 13. A window the packing cannot hold reports false
// and bypasses the table.
func tableKey(id uint16, w window.Window) (uint64, bool) {
	size := w.Size()
	if w.Start < 0 || w.Start >= 1<<28 || size < 1 || size > 1<<7 || w.Delay < -4096 || w.Delay >= 4096 {
		return 0, false
	}
	return uint64(id)<<48 | uint64(w.Start)<<20 | uint64(size-1)<<13 | uint64(w.Delay+4096), true
}

// mix is a bijection on 64 bits: right xor-shifts and multiplications by
// odd constants (SplitMix64's finalizer without its last shift, which moves
// no bit into the set index).
func mix(key uint64) uint64 {
	key = (key ^ key>>30) * 0xbf58476d1ce4e5b9
	return (key ^ key>>27) * 0x94d049bb133111eb
}

// slotOf returns the index of key's set, and the word of a way that holds
// key, less its hit bit and stamp.
func slotOf(key uint64) (int, uint64) {
	m := mix(key)
	return int(m >> (64 - tableSetBits)), m<<tableSetBits | wayValid
}

// lookup returns key's estimate, if the table holds it for h's epoch, and
// marks the entry hit and most recent.
func (t *ScoreTable) lookup(h TableHandle, key uint64) (float64, bool) {
	i, tag := slotOf(key)
	st := &t.stripes[i%tableStripes]
	st.Lock()
	defer st.Unlock()
	if h.epoch != t.epoch.Load() {
		return 0, false
	}
	s := &t.sets[i]
	// The loops range over a pointer to the set's array: ranging over an
	// array with a value variable copies it first.
	for w, word := range &s.words {
		if word&^wayState == tag {
			s.words[w] = tag | wayHit | s.tick(&st.clocks[i/tableStripes])
			return s.vals[w], true
		}
	}
	return 0, false
}

// store enters key's estimate for h's epoch. It takes an empty way, or else
// evicts the least recent entry no search has hit, or else the least recent
// entry: the entry whose hit bit and stamp are least.
func (t *ScoreTable) store(h TableHandle, key uint64, raw float64) {
	i, tag := slotOf(key)
	st := &t.stripes[i%tableStripes]
	st.Lock()
	defer st.Unlock()
	if h.epoch != t.epoch.Load() {
		return
	}
	s := &t.sets[i]
	clock := &st.clocks[i/tableStripes]
	empty, victim, least := -1, -1, uint64(wayState)+1
	for w, word := range &s.words {
		switch {
		case word&^wayState == tag:
			// Another search stored it meanwhile, with the same bits.
			s.words[w] = word&wayHit | tag | s.tick(clock)
			return
		case word == 0:
			if empty < 0 {
				empty = w
			}
		case word&wayState < least:
			victim, least = w, word&wayState
		}
	}
	if empty >= 0 {
		victim = empty
		t.occupied.Add(1)
	} else {
		t.evictions.Add(1)
	}
	s.words[victim], s.vals[victim] = tag|s.tick(clock), raw
}

// tick returns the set's next recency stamp and advances its clock, so a
// hit or a store stamps one word. Stamps grow with each hit or store, so
// the order of the entries' stamps is the order in which searches last hit
// or stored them. A clock that has run out of stamp bits first restamps the
// set's entries 0…n−1 in that order and resumes at n.
func (s *tableSet) tick(clock *uint16) uint64 {
	if *clock > wayStamp {
		*clock = s.restamp()
	}
	c := *clock
	*clock++
	return uint64(c)
}

// restamp renumbers the set's entries' stamps 0…n−1, keeping their order,
// and returns n.
func (s *tableSet) restamp() uint16 {
	var old [tableWays]uint64
	for w, word := range &s.words {
		old[w] = word & wayStamp
	}
	n := uint16(0)
	for w, word := range &s.words {
		if word == 0 {
			continue
		}
		rank := uint64(0)
		for v, other := range &s.words {
			if other != 0 && old[v] < old[w] {
				rank++
			}
		}
		s.words[w] = word&^wayStamp | rank
		n++
	}
	return n
}

// tableProbe is one window's table lookup: its key, and its estimate when
// the table held it or the scorer has since estimated it.
type tableProbe struct {
	w   window.Window
	key uint64
	raw float64
	hit bool
}

// maxProbes bounds the windows one neighbourhood probes: plan's skip mask
// has a bit per window.
const maxProbes = 32
