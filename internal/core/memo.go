package core

import (
	"math/rand"
	"sync"

	"tycos/internal/lahc"
	"tycos/internal/window"
)

// The score memo: a restart segment's climbs keep coming back to windows
// they have just scored. After an accepted move the new δ-neighbourhood
// overlaps the old one, and the noise variants re-score the window they
// moved to (Section 6.2.2). A small direct-mapped table in front of the
// scorer answers those repeats without an estimate.
//
// The memo is invisible in the results. A scorer's uncorrected score is a
// pure function of the window, trivially for the batch scorer and by the
// bit-exact incremental ≡ batch contract for the incremental one. So a hit
// returns the very bits a fresh evaluation would. One memo per segment makes
// hits depend only on that segment's own evaluation order, which rule 2 of
// parallel.go already keeps schedule-free. Only the scorers' work counters
// (Stats.MIBatch, Stats.MIIncremental and the mi.* counters) see fewer
// estimates.

// memoBits sizes the memo at 2^memoBits slots of 48 bytes. Share of scorer
// lookups (windows_evaluated, noise-theory lookups included) a memo served
// in traced perfsuite runs of seed 1:
//
//	slots  pair-L  pair-LMN  discover-fleet
//	64     14.5 %  18.5 %    22.2 %
//	256    19.0 %  23.0 %    27.5 %
//	1024   20.8 %  24.6 %    29.4 %
//
// 256 slots (12 KiB) serve all but two points of what 1024 serve.
const memoBits = 8

// memoEntry is one memoized window with the (raw, normalized) pair the
// scorer returned for it, without null correction.
type memoEntry struct {
	w         window.Window
	raw, norm float64
	used      bool
}

// scoreMemo is a direct-mapped table of memoized scores: a window can only
// live in the slot its hash selects, and a newer window evicts an older one.
type scoreMemo [1 << memoBits]memoEntry

// slot returns the index of w's slot: a multiplicative hash of the three
// coordinates, keeping the top memoBits bits.
func (m *scoreMemo) slot(w window.Window) uint64 {
	h := uint64(w.Start)*0x9e3779b97f4a7c15 ^ uint64(w.End)*0xc2b2ae3d27d4eb4f ^ uint64(w.Delay)*0x165667b19e3779f9
	return h >> (64 - memoBits)
}

// get returns w's memoized scores, if w holds its slot.
func (m *scoreMemo) get(w window.Window) (raw, norm float64, ok bool) {
	e := &m[m.slot(w)]
	if !e.used || e.w != w {
		return 0, 0, false
	}
	return e.raw, e.norm, true
}

// put memoizes w's scores, evicting whatever held its slot.
func (m *scoreMemo) put(w window.Window, raw, norm float64) {
	m[m.slot(w)] = memoEntry{w: w, raw: raw, norm: norm, used: true}
}

// segScratch is the scratch one restart segment's searcher holds for the
// segment: the score memo, the variant's scorer (see newScorer) and the
// batch scorer's τ-planes (see batchScorer.plan), the acceptor RNG, which
// searcher.run re-seeds at every restart (nil until a segment first needs
// one), the acceptor, which every climb renews, and the neighbourhood
// buffer. What a segment hands to the merge (candidates, events, counters)
// never lives here: the scratch is back on the free list before the merge
// reads them.
type segScratch struct {
	memo     scoreMemo
	batch    batchScorer
	inc      incScorer
	planes   [maxPlanes]tauPlane
	rng      *rand.Rand
	acceptor lahc.Acceptor
	nbuf     []window.Window
}

// scratchList is a mutex-guarded free list of segment scratch, so a warm
// search allocates none. A segment takes one scratch and returns it when it
// ends, so the list never holds more than the most segments that ever ran
// at once: the restart workers of every search in flight. A sync.Pool
// would not do: an item in one P's private slot is invisible to the
// others, so a warm two-worker search could miss a pooled table, and a
// collection may drop pooled items.
type scratchList struct {
	mu   sync.Mutex
	free []*segScratch
	made int // scratch allocated so far
}

var scratchPool scratchList

// take returns scratch with an empty memo: a freed one when the list holds
// one, a new one otherwise. The planes are Reset before each use.
func (l *scratchList) take() *segScratch {
	l.mu.Lock()
	var sc *segScratch
	if n := len(l.free); n > 0 {
		sc = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		l.made++
	}
	l.mu.Unlock()
	if sc == nil {
		return new(segScratch)
	}
	sc.memo = scoreMemo{}
	return sc
}

// put frees scratch for the next segment. Its scorers drop the segment's
// pair, estimators and null model, and its planes their sample slices,
// first: a freed scratch must not keep a finished search's series alive.
// The caller must not use sc afterwards.
func (l *scratchList) put(sc *segScratch) {
	sc.batch, sc.inc = batchScorer{}, incScorer{}
	for i := range sc.planes {
		sc.planes[i].est.Release()
	}
	l.mu.Lock()
	l.free = append(l.free, sc)
	l.mu.Unlock()
}

// plan tells the scorer which windows of the neighbourhood it is about to
// score will reach it: bit i of the mask is set when the memo answers
// nbs[i] now. A window the memo evicts before its turn still scores to the
// same bits, on whichever path the scorer takes.
func (s *searcher) plan(nbs []window.Window) {
	var hits uint32
	if s.memo != nil {
		for i, w := range nbs {
			if _, _, ok := s.memo.get(w); ok {
				hits |= 1 << i
			}
		}
	}
	s.scorer.plan(nbs, hits)
}

// both returns w's uncorrected raw and normalized scores, from the memo when
// this segment has scored w before. A hit counts as an evaluation like a
// fresh estimate: callers cannot tell the two apart. Errors are not
// memoized; a failing window fails again on the scorer.
func (s *searcher) both(w window.Window) (raw, norm float64, err error) {
	if s.memo == nil {
		return s.scorer.both(w)
	}
	if raw, norm, ok := s.memo.get(w); ok {
		s.memoHits++
		return raw, norm, nil
	}
	raw, norm, err = s.scorer.both(w)
	if err == nil {
		s.memo.put(w, raw, norm)
	}
	return raw, norm, err
}
