package main

import (
	"fmt"
	"time"

	tycos "tycos"
	"tycos/internal/synth"
)

// Input streams: each kind of input derives from the run seed through its
// own stream. The two pair workloads share one; their pairs differ in length
// and in where segments are planted.
const (
	streamPairs = iota + 1
	streamFleet
	streamDaemon
	streamKernel
)

// warmSeed generates the input of a set-up's warm-up operation. It is fixed
// rather than the run seed, so setup_s measures set-up and not how hard one
// seed's first input happens to be.
const warmSeed = 0

// pairSpec sizes one pair workload: a pool of CorrelatedAR pairs searched in
// turn with fixed options. Planted delays are drawn from 0..delay, below
// TDMax: the τ=0-anchored start of each climb finds couplings up to about
// 4 samples on every seed, and further ones only on some, which would make
// recall a property of the seed instead of the search. The pool is large
// enough that a run's latency percentiles rest on many pairs, not on how
// hard a few pairs of one seed happen to be.
type pairSpec struct {
	n, segs, segLen, delay, pool int
	opts                         tycos.Options
}

func pairLSpec(smoke bool) pairSpec {
	s := pairSpec{n: 1000, segs: 2, segLen: 100, delay: 4, pool: 32, opts: tycos.Options{
		SMin: 10, SMax: 150, TDMax: 10, Sigma: 0.3,
		Normalization: tycos.NormMaxEntropy, Variant: tycos.VariantL,
		RestartWorkers: 1, Seed: 1,
	}}
	if smoke {
		s.n, s.segLen, s.delay, s.pool = 60, 12, 1, 2
		s.opts.SMin, s.opts.SMax, s.opts.TDMax = 6, 12, 2
	}
	return s
}

func pairLMNSpec(smoke bool) pairSpec {
	s := pairSpec{n: 3000, segs: 3, segLen: 250, delay: 4, pool: 16, opts: tycos.Options{
		SMin: 10, SMax: 300, TDMax: 10, Sigma: 0.3,
		Normalization: tycos.NormMaxEntropy, Variant: tycos.VariantLMN,
		RestartWorkers: 2, Seed: 1,
	}}
	if smoke {
		s.n, s.segs, s.segLen, s.delay, s.pool = 80, 2, 15, 1, 2
		s.opts.SMin, s.opts.SMax, s.opts.TDMax = 6, 16, 2
	}
	return s
}

func runPairL(cfg runConfig) (*outcome, error)   { return runPairs(cfg, pairLSpec(cfg.smoke)) }
func runPairLMN(cfg runConfig) (*outcome, error) { return runPairs(cfg, pairLMNSpec(cfg.smoke)) }

// makePair generates pair i of the pool of the given seed.
func makePair(seed int64, i int, sp pairSpec) (synth.Composite, error) {
	return synth.CorrelatedAR(sp.n, sp.segs, sp.segLen, sp.delay, inputSeed(seed, streamPairs, i))
}

// makePairs generates the pair pool from the run seed.
func makePairs(seed int64, sp pairSpec) ([]synth.Composite, error) {
	pool := make([]synth.Composite, sp.pool)
	for i := range pool {
		c, err := makePair(seed, i, sp)
		if err != nil {
			return nil, err
		}
		pool[i] = c
	}
	return pool, nil
}

// runPairs is the closed-loop pair workload: one client searching the pool's
// pairs in turn. Every answer must complete and equal the first answer for
// the same input, and the run must recall the planted segments.
func runPairs(cfg runConfig, sp pairSpec) (*outcome, error) {
	o := newOutcome()
	var pool []synth.Composite
	for r := 0; r < cfg.reps(); r++ {
		t0 := time.Now()
		p, err := makePairs(cfg.seed, sp)
		if err != nil {
			return nil, err
		}
		warm, err := makePair(warmSeed, 0, sp)
		if err != nil {
			return nil, err
		}
		if _, err := tycos.Search(warm.Pair, sp.opts); err != nil {
			return nil, fmt.Errorf("warm-up search: %w", err)
		}
		o.setup = append(o.setup, time.Since(t0))
		pool = p
	}
	o.probePair, o.probeOpts = pool[0].Pair, sp.opts

	var probe *coreProbe
	if cfg.tr != nil {
		probe = newCoreProbe()
	}
	refs := make([]string, len(pool))
	seen := make([]bool, len(pool))
	recalls := make([]float64, len(pool))
	closedLoop(cfg, o, 1, func(i int) error {
		idx := i % len(pool)
		opts := sp.opts
		mark := 0
		if probe != nil {
			opts.Observer = probe
			mark = probe.mark()
		}
		start := time.Now()
		res, err := tycos.Search(pool[idx].Pair, opts)
		if probe != nil {
			traceSearch(cfg.tr, 0, start, time.Now(), probe.since(mark))
		}
		if err != nil {
			return err
		}
		if res.Stats.StopReason != tycos.StopCompleted {
			return fmt.Errorf("input %d stopped early: %s", idx, res.Stats.StopReason)
		}
		key := windowsKey(res.Windows)
		if !seen[idx] {
			refs[idx], seen[idx] = key, true
			recalls[idx] = plantedRecall(pool[idx].Segments, res.Windows)
		} else if key != refs[idx] {
			return fmt.Errorf("input %d: windows differ from its first search", idx)
		}
		return nil
	})

	d := newDigest()
	for _, r := range refs {
		d.add(r)
	}
	o.digest = d.String()
	o.recall = searchedRecall(seen, recalls)
	checkRecall(o)
	if probe != nil {
		return o, probe.layerValues(o.layer)
	}
	return o, nil
}
