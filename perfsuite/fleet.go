package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"time"

	tycos "tycos"
)

// fleetSpec sizes the discovery workload: fleets of one anchor and cands
// candidates of n points. Every every-th candidate is a planted follower at
// a delay of 0..delay (see pairSpec for why not up to TDMax); the rest are
// AR(1) decoys as persistent as the anchor, of which the screen passes
// whichever happen to reach its threshold in some window. How many do
// varies from fleet to fleet by a factor of ten, so a run passes over many
// fleets, and the series are short enough that it makes the 100 passes p90
// needs.
type fleetSpec struct {
	fleets, cands, n, every, delay int
	opts                           tycos.DiscoveryOptions
}

func fleetSpecFor(smoke bool) fleetSpec {
	s := fleetSpec{fleets: 64, cands: 100, n: 160, every: 20, delay: 2, opts: tycos.DiscoveryOptions{
		Search: tycos.Options{
			SMin: 8, SMax: 32, TDMax: 8, Sigma: 0.45,
			Normalization: tycos.NormMaxEntropy, Variant: tycos.VariantLMN, Seed: 1,
		},
		TopK: 10, Screen: true, ScreenWindow: 32, ScreenThreshold: 0.9, Workers: 2,
	}}
	if smoke {
		s.fleets, s.cands, s.n, s.every, s.delay = 2, 4, 80, 2, 1
		s.opts.Search.SMin, s.opts.Search.SMax, s.opts.Search.TDMax, s.opts.ScreenWindow = 8, 24, 2, 16
	}
	return s
}

// fleet is one discovery input with its ground truth.
type fleet struct {
	anchor  tycos.Series
	cands   []tycos.Series
	planted []int
}

// ar1 draws n points of an AR(1) process with coefficient 0.9.
func ar1(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	var a float64
	for i := range v {
		a = 0.9*a + rng.NormFloat64()
		v[i] = a
	}
	return v
}

// makeFleet generates fleet f: an AR(1) anchor, planted followers that copy
// it at a random delay with a little noise, and AR(1) decoys.
func makeFleet(seed int64, f int, sp fleetSpec) fleet {
	rng := rand.New(rand.NewSource(inputSeed(seed, streamFleet, f)))
	av := ar1(rng, sp.n)
	fl := fleet{anchor: tycos.NewSeries("anchor", av), cands: make([]tycos.Series, sp.cands)}
	for c := range fl.cands {
		v := ar1(rng, sp.n)
		if c%sp.every == 0 {
			delay := rng.Intn(sp.delay + 1)
			for i := range v {
				v[i] = av[max(i-delay, 0)] + 0.05*rng.NormFloat64()
			}
			fl.planted = append(fl.planted, c)
		}
		fl.cands[c] = tycos.NewSeries(fmt.Sprintf("c%03d", c), v)
	}
	return fl
}

// rankingKey renders a discovery ranking canonically.
func rankingKey(res tycos.DiscoveryResult) string {
	var b strings.Builder
	for _, c := range res.Ranked {
		fmt.Fprintf(&b, "%s/%d/%x[%s]", c.Name, c.Index, math.Float64bits(c.Score), windowsKey(c.Result.Windows))
	}
	fmt.Fprintf(&b, "|%x", math.Float64bits(res.Threshold))
	return b.String()
}

// passPhases timestamps a pass's phase boundaries from its progress
// callbacks: the screen resolves every candidate before confirmation starts.
type passPhases struct {
	mu                    sync.Mutex
	screenEnd, confirmEnd time.Time
}

func (p *passPhases) progress(pr tycos.DiscoveryProgress) {
	now := time.Now()
	p.mu.Lock()
	if pr.Phase == "screen" {
		p.screenEnd = now
	} else {
		p.confirmEnd = now
	}
	p.mu.Unlock()
}

// fleetLayers accumulates the per-pass discovery metrics of a traced run.
type fleetLayers struct {
	passes                      int
	screen, confirm, merge      time.Duration
	pruned, candidates, windows int
	evaluated                   int
}

// record adds one pass's spans to the trace and its times to the totals.
func (l *fleetLayers) record(tr *tracer, p *passPhases, start, end time.Time, st tycos.DiscoveryStats) {
	p.mu.Lock()
	screenEnd, confirmEnd := p.screenEnd, p.confirmEnd
	p.mu.Unlock()
	if screenEnd.IsZero() {
		screenEnd = start
	}
	mergeStart := screenEnd
	root := tr.add(0, "pass", start, end)
	tr.add(root, "screen", start, screenEnd)
	l.screen += screenEnd.Sub(start)
	if !confirmEnd.IsZero() {
		tr.add(root, "confirm", screenEnd, confirmEnd)
		l.confirm += confirmEnd.Sub(screenEnd)
		mergeStart = confirmEnd
	}
	tr.add(root, "merge", mergeStart, end)
	l.merge += end.Sub(mergeStart)
	l.passes++
	l.pruned += st.Pruned
	l.candidates += st.Candidates
	l.windows += st.ScreenWindows
	l.evaluated += st.Evaluated
}

// runFleet is the closed-loop discovery workload: one client running
// Discover passes over the fleets in turn. Every pass must finish without
// candidate errors and rank exactly as the first pass over the same fleet
// did, and the run must rank the planted followers.
func runFleet(cfg runConfig) (*outcome, error) {
	sp := fleetSpecFor(cfg.smoke)
	o := newOutcome()
	var fleets []fleet
	for r := 0; r < cfg.reps(); r++ {
		t0 := time.Now()
		fs := make([]fleet, sp.fleets)
		for f := range fs {
			fs[f] = makeFleet(cfg.seed, f, sp)
		}
		warm := makeFleet(warmSeed, 0, sp)
		if _, err := tycos.Discover(context.Background(), warm.anchor, warm.cands, sp.opts); err != nil {
			return nil, fmt.Errorf("warm-up pass: %w", err)
		}
		o.setup = append(o.setup, time.Since(t0))
		fleets = fs
	}
	pair, err := tycos.NewPair(fleets[0].anchor, fleets[0].cands[fleets[0].planted[0]])
	if err != nil {
		return nil, err
	}
	o.probePair, o.probeOpts = pair, sp.opts.Search
	o.probeOpts.RestartWorkers = 1

	var probe *coreProbe
	var layers fleetLayers
	if cfg.tr != nil {
		probe = newCoreProbe()
	}
	refs := make([]string, len(fleets))
	seen := make([]bool, len(fleets))
	recalls := make([]float64, len(fleets))
	closedLoop(cfg, o, float64(sp.cands), func(i int) error {
		fi := i % len(fleets)
		opts := sp.opts
		var phases *passPhases
		if probe != nil {
			phases = &passPhases{}
			opts.OnProgress = phases.progress
			opts.Observer = probe
		}
		start := time.Now()
		res, err := tycos.Discover(context.Background(), fleets[fi].anchor, fleets[fi].cands, opts)
		if phases != nil {
			layers.record(cfg.tr, phases, start, time.Now(), res.Stats)
		}
		if err != nil {
			return err
		}
		if res.Partial || len(res.Errors) > 0 {
			return fmt.Errorf("fleet %d: partial=%v, %d candidate errors", fi, res.Partial, len(res.Errors))
		}
		key := rankingKey(res)
		if !seen[fi] {
			refs[fi], seen[fi] = key, true
			recalls[fi] = fleetRecall(fleets[fi].planted, res)
		} else if key != refs[fi] {
			return fmt.Errorf("fleet %d: ranking differs from its first pass", fi)
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
	if probe == nil {
		return o, nil
	}
	if err := probe.layerValues(o.layer); err != nil {
		return nil, err
	}
	n := float64(layers.passes)
	o.layer["discovery.screen_ms"] = ms(layers.screen) / n
	o.layer["discovery.confirm_ms"] = ms(layers.confirm) / n
	o.layer["discovery.merge_ms"] = ms(layers.merge) / n
	o.layer["discovery.screen_prune_ratio"] = ratio(float64(layers.pruned), float64(layers.candidates))
	o.layer["discovery.screen_windows"] = float64(layers.windows) / n
	o.layer["discovery.evaluated"] = float64(layers.evaluated) / n
	scaling, err := workerScaling(cfg, fleets[0], sp.opts)
	if err != nil {
		return nil, err
	}
	o.layer["discovery.scaling_2w"] = scaling
	return o, nil
}

// fleetRecall is the share of planted followers ranked.
func fleetRecall(planted []int, res tycos.DiscoveryResult) float64 {
	found := 0
	for _, c := range res.Ranked {
		for _, p := range planted {
			if c.Index == p {
				found++
			}
		}
	}
	return ratio(float64(found), float64(len(planted)))
}

// workerScaling times passes over one fleet with 1 and with 2 workers,
// alternated, and returns the ratio of their median times.
func workerScaling(cfg runConfig, fl fleet, opts tycos.DiscoveryOptions) (float64, error) {
	var t [2][]float64
	for r := 0; r < cfg.repsFor(probeReps); r++ {
		for w := range t {
			o := opts
			o.Workers = w + 1
			start := time.Now()
			if _, err := tycos.Discover(context.Background(), fl.anchor, fl.cands, o); err != nil {
				return 0, err
			}
			t[w] = append(t[w], ms(time.Since(start)))
		}
	}
	_, one, _ := quartiles(t[0])
	_, two, _ := quartiles(t[1])
	return ratio(one, two), nil
}
