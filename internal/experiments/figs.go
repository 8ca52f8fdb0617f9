package experiments

import (
	"fmt"
	"sort"

	"tycos/internal/core"
	"tycos/internal/dataset"
	"tycos/internal/matrixprofile"
	"tycos/internal/mi"
	"tycos/internal/series"
	"tycos/internal/synth"
	"tycos/internal/window"
)

// Fig4 regenerates the MI-fluctuation illustration: the normalized MI of
// fixed-size windows sliding over a composite pair, showing the peaks the
// LAHC search climbs towards.
func Fig4(cfg Config) *Table {
	comp, err := synth.Compose(
		[]synth.Relation{synth.RelLinear, synth.RelSine, synth.RelQuad},
		160, 120, 0, cfg.seed(),
	)
	if err != nil {
		panic(err)
	}
	est := mi.NewKSG(4, mi.BackendKDTree)
	t := &Table{
		ID:     "fig4",
		Title:  "MI fluctuation across sliding windows (size 60, step 10)",
		Header: []string{"window_start", "normalized_mi"},
	}
	size := 60
	for s := 0; s+size <= comp.Pair.Len(); s += 10 {
		xs := comp.Pair.X.Values[s : s+size]
		ys := comp.Pair.Y.Values[s : s+size]
		raw, err := est.Estimate(xs, ys)
		if err != nil {
			continue
		}
		t.Append(s, mi.Normalize(raw, xs, ys, mi.NormMaxEntropy))
	}
	return t
}

// Fig6 regenerates the noise illustration: the MI of windows [0, e] versus
// [6, e] over a pair whose first six samples are independent noise — the
// curve excluding the noisy prefix dominates, which is the observation
// Theorem 6.1 formalises.
func Fig6(cfg Config) *Table {
	comp, err := synth.Compose([]synth.Relation{synth.RelLinear}, 200, 6, 0, cfg.seed())
	if err != nil {
		panic(err)
	}
	est := mi.NewKSG(4, mi.BackendKDTree)
	t := &Table{
		ID:     "fig6",
		Title:  "MI of growing windows including vs excluding a noisy prefix",
		Header: []string{"window_end", "mi_from_0", "mi_from_6"},
	}
	for e := 30; e < 206 && e < comp.Pair.Len(); e += 10 {
		a, err1 := est.Estimate(comp.Pair.X.Values[0:e+1], comp.Pair.Y.Values[0:e+1])
		b, err2 := est.Estimate(comp.Pair.X.Values[6:e+1], comp.Pair.Y.Values[6:e+1])
		if err1 != nil || err2 != nil {
			continue
		}
		t.Append(e, a, b)
	}
	return t
}

// fig9Dataset is one workload of the runtime comparison.
type fig9Dataset struct {
	name string
	pair series.Pair
	opts core.Options
}

func fig9Datasets(cfg Config) []fig9Dataset {
	sizes := []int{2000, 4000, 8000}
	energyDays, cityDays := 7, 7
	if cfg.Quick {
		sizes = []int{800, 1600, 2400}
		energyDays, cityDays = 2, 2
	}
	var out []fig9Dataset
	for i, n := range sizes {
		comp, err := synth.CorrelatedAR(n, i+1, n/10, 10, cfg.seed())
		if err != nil {
			panic(err)
		}
		out = append(out, fig9Dataset{
			name: fmt.Sprintf("Synthetic %d (n=%d)", i+1, n),
			pair: comp.Pair,
			opts: core.Options{
				SMin: 10, SMax: n / 8, TDMax: 10, Sigma: 0.3,
				Normalization: mi.NormMaxEntropy, Seed: cfg.seed(),
			},
		})
	}
	h := dataset.Energy(dataset.EnergyOptions{Days: energyDays, Seed: cfg.seed()})
	kitchen, _ := h.Kitchen.Resample(5)
	washer, _ := h.DishWasher.Resample(5)
	ep, _ := series.NewPair(kitchen, washer)
	out = append(out, fig9Dataset{
		name: fmt.Sprintf("Energy (n=%d)", ep.Len()),
		pair: ep,
		opts: core.Options{
			SMin: 6, SMax: 240, TDMax: 50, Sigma: 0.3,
			Normalization: mi.NormMaxEntropy, Seed: cfg.seed(),
		},
	})
	c := dataset.SimulateCity(dataset.CityOptions{Days: cityDays, Seed: cfg.seed()})
	cp, _ := series.NewPair(c.Precipitation, c.Collisions)
	out = append(out, fig9Dataset{
		name: fmt.Sprintf("City (n=%d)", cp.Len()),
		pair: cp,
		opts: core.Options{
			SMin: 6, SMax: 96, TDMax: 30, Sigma: 0.25,
			Normalization: mi.NormMaxEntropy, Seed: cfg.seed(),
		},
	})
	return out
}

// fig9Rounds is the number of timing rounds behind each Fig. 9 cell.
const fig9Rounds = 5

// Fig9 regenerates the runtime comparison of the four TYCOS variants on the
// synthetic and simulated real-world workloads, reporting per-variant
// runtime, the work behind it and the speedup over plain TYCOS_L. Each
// round runs the four variants in turn, and a cell reports the median and
// the range of its fig9Rounds times, so drift in machine speed hits every
// variant alike.
func Fig9(cfg Config) *Table {
	t := &Table{
		ID:    "fig9",
		Title: fmt.Sprintf("Runtime of TYCOS variants (median and range of %d interleaved rounds)", fig9Rounds),
		Header: []string{"dataset", "variant", "runtime_ms", "range_ms", "windows",
			"windows_evaluated", "mi_batch", "mi_incremental", "speedup_vs_L"},
	}
	variants := []core.Variant{core.VariantL, core.VariantLN, core.VariantLM, core.VariantLMN}
	for _, ds := range fig9Datasets(cfg) {
		times := make([][]float64, len(variants))
		res := make([]core.Result, len(variants))
		errs := make([]error, len(variants))
		for round := 0; round < fig9Rounds; round++ {
			for i, v := range variants {
				opts := ds.opts
				opts.Variant = v
				times[i] = append(times[i], timeIt(func() { res[i], errs[i] = core.Search(ds.pair, opts) }))
			}
		}
		var baseMs float64
		for i, v := range variants {
			if errs[i] != nil {
				t.Append(ds.name, v.String(), "error", errs[i].Error(), "", "", "", "", "")
				continue
			}
			sort.Float64s(times[i])
			ms := times[i][len(times[i])/2]
			if v == core.VariantL {
				baseMs = ms
			}
			speedup := "1.0"
			if baseMs > 0 && ms > 0 {
				speedup = fmt.Sprintf("%.1f", baseMs/ms)
			}
			st := res[i].Stats
			t.Append(ds.name, v.String(), fmt.Sprintf("%.1f", ms),
				fmt.Sprintf("%.1f-%.1f", times[i][0], times[i][len(times[i])-1]),
				len(res[i].Windows), st.WindowsEvaluated, st.MIBatch, st.MIIncremental, speedup)
			cfg.logf("fig9: %s %s %.0fms", ds.name, v, ms)
		}
	}
	return t
}

// Fig10 regenerates the Brute Force vs MatrixProfile vs TYCOS_LMN runtime
// comparison over growing data sizes. Brute Force is exact and cubic; its
// sizes are necessarily bounded (the paper's own 9,000-point example runs
// >12 hours), so the largest rows report only the two scalable methods.
func Fig10(cfg Config) *Table {
	sizes := []int{400, 800, 1600, 3200}
	bfCap := 900
	if cfg.Quick {
		sizes = []int{300, 600}
		bfCap = 400
	}
	t := &Table{
		ID:     "fig10",
		Title:  "Runtime: Brute Force vs MatrixProfile vs TYCOS_LMN",
		Header: []string{"size", "bruteforce_ms", "matrixprofile_ms", "tycos_lmn_ms"},
	}
	for _, n := range sizes {
		comp, err := synth.CorrelatedAR(n, 2, n/8, 3, cfg.seed())
		if err != nil {
			continue
		}
		opts := core.Options{
			SMin: 10, SMax: 40, TDMax: 3, Sigma: 0.3,
			Normalization: mi.NormMaxEntropy, Seed: cfg.seed(),
		}
		bfCell := "-"
		if n <= bfCap {
			ms := timeIt(func() { _, _ = core.BruteForce(comp.Pair, opts) })
			bfCell = fmt.Sprintf("%.1f", ms)
		}
		mpMs := timeIt(func() {
			for _, m := range []int{25, 50, 100} {
				_, _ = matrixprofile.ABJoin(comp.Pair.X.Values, comp.Pair.Y.Values, m)
			}
		})
		opts.Variant = core.VariantLMN
		tyMs := timeIt(func() { _, _ = core.Search(comp.Pair, opts) })
		t.Append(n, bfCell, fmt.Sprintf("%.1f", mpMs), fmt.Sprintf("%.1f", tyMs))
		cfg.logf("fig10: size %d done", n)
	}
	return t
}

// Fig11 (and Fig12, which plots the same two series together) regenerates
// the noise-threshold study: as ε/σ grows, more of the search space is
// pruned, so the runtime gain of TYCOS_LN over TYCOS_L rises — and so does
// the error rate (windows missed relative to TYCOS_L).
func Fig11(cfg Config) *Table {
	n := 3000
	reps := 3
	if cfg.Quick {
		n = 1200
		reps = 1
	}
	t := &Table{
		ID:     "fig11_12",
		Title:  "Effect of the noise threshold ratio ε/σ (error vs runtime gain)",
		Header: []string{"eps_over_sigma", "error_rate_pct", "runtime_gain_pct", "ln_ms", "l_ms"},
	}
	ratios := []float64{0.05, 0.1, 0.2, 0.25, 0.3, 0.5, 0.7, 0.9}
	errSum := make([]float64, len(ratios))
	gainSum := make([]float64, len(ratios))
	lnMsSum := make([]float64, len(ratios))
	var lMsSum float64
	// LAHC runtimes and misses fluctuate run to run; average a few seeds.
	for rep := 0; rep < reps; rep++ {
		seed := cfg.seed() + int64(rep)
		comp, err := synth.CorrelatedAR(n, 4, n/10, 6, seed)
		if err != nil {
			panic(err)
		}
		base := core.Options{
			SMin: 10, SMax: n / 8, TDMax: 6, Sigma: 0.4, MaxIdle: 8,
			Normalization: mi.NormMaxEntropy, Seed: seed,
		}
		base.Variant = core.VariantL
		var lRes core.Result
		lMs := timeIt(func() { lRes, err = core.Search(comp.Pair, base) })
		if err != nil {
			panic(err)
		}
		lMsSum += lMs
		for ri, ratio := range ratios {
			opts := base
			opts.Variant = core.VariantLN
			opts.Epsilon = ratio * opts.Sigma
			var lnRes core.Result
			lnMs := timeIt(func() { lnRes, err = core.Search(comp.Pair, opts) })
			if err != nil {
				continue
			}
			errSum[ri] += 100 - window.MatchRate(window.MergeWithin(lRes.Windows, 10), window.MergeWithin(lnRes.Windows, 10))
			if lMs > 0 {
				gainSum[ri] += 100 * (lMs - lnMs) / lMs
			}
			lnMsSum[ri] += lnMs
			cfg.logf("fig11: rep %d ratio %.2f done", rep, ratio)
		}
	}
	for ri, ratio := range ratios {
		t.Append(fmt.Sprintf("%.2f", ratio),
			errSum[ri]/float64(reps), gainSum[ri]/float64(reps),
			fmt.Sprintf("%.1f", lnMsSum[ri]/float64(reps)),
			fmt.Sprintf("%.1f", lMsSum/float64(reps)))
	}
	return t
}

// Fig13A regenerates the σ sweep on the simulated city pair: larger σ keeps
// only stronger correlations (fewer windows) while the search works harder
// to satisfy the bar.
func Fig13A(cfg Config) *Table {
	days := 14
	if cfg.Quick {
		days = 4
	}
	c := dataset.SimulateCity(dataset.CityOptions{Days: days, Seed: cfg.seed()})
	p, _ := series.NewPair(c.Precipitation, c.Collisions)
	t := &Table{
		ID:     "fig13a",
		Title:  "Effect of sigma on (Precipitation, Collisions)",
		Header: []string{"sigma", "windows", "runtime_ms"},
	}
	// The sweep covers the useful σ band of this reproduction's score scale
	// (collision counts score ≈0.1–0.25 under max-entropy normalization; see
	// Table 2 and EXPERIMENTS.md).
	for _, sigma := range []float64{0.1, 0.125, 0.15, 0.2, 0.25} {
		opts := core.Options{
			SMin: 12, SMax: 96, TDMax: 30, Sigma: sigma,
			Jitter: 0.01, SignificanceLevel: 3,
			Normalization: mi.NormMaxEntropy,
			Variant:       core.VariantLMN, Seed: cfg.seed(),
		}
		var res core.Result
		var err error
		ms := timeIt(func() { res, err = core.Search(p, opts) })
		if err != nil {
			continue
		}
		t.Append(fmt.Sprintf("%.3f", sigma), len(res.Windows), fmt.Sprintf("%.1f", ms))
		cfg.logf("fig13a: sigma %.1f done", sigma)
	}
	return t
}

// Fig13B regenerates the s_max sweep on (Snow, Collisions): once s_max
// exceeds the longest real correlation the extracted set converges while
// runtime keeps growing with the larger windows the search must evaluate.
func Fig13B(cfg Config) *Table {
	days := 14
	sweeps := []int{30, 60, 120, 250, 400}
	if cfg.Quick {
		days = 4
		sweeps = []int{30, 60, 120}
	}
	c := dataset.SimulateCity(dataset.CityOptions{Days: days, Seed: cfg.seed()})
	p, _ := series.NewPair(c.Snow, c.Collisions)
	t := &Table{
		ID:     "fig13b",
		Title:  "Effect of s_max on (Snow, Collisions)",
		Header: []string{"s_max", "windows", "runtime_ms"},
	}
	for _, sMax := range sweeps {
		opts := core.Options{
			SMin: 12, SMax: sMax, TDMax: 30, Sigma: 0.12,
			Jitter: 0.01, SignificanceLevel: 3,
			Normalization: mi.NormMaxEntropy,
			Variant:       core.VariantLMN, Seed: cfg.seed(),
		}
		var res core.Result
		var err error
		ms := timeIt(func() { res, err = core.Search(p, opts) })
		if err != nil {
			continue
		}
		t.Append(sMax, len(res.Windows), fmt.Sprintf("%.1f", ms))
		cfg.logf("fig13b: s_max %d done", sMax)
	}
	return t
}

// Fig13C regenerates the td_max sweep on (Snow, Collisions): the window set
// converges once td_max covers the real delay, with roughly flat runtime
// beyond.
func Fig13C(cfg Config) *Table {
	days := 14
	sweeps := []int{0, 6, 12, 24, 48, 60}
	if cfg.Quick {
		days = 4
		sweeps = []int{0, 6, 12, 24}
	}
	c := dataset.SimulateCity(dataset.CityOptions{Days: days, Seed: cfg.seed()})
	p, _ := series.NewPair(c.Snow, c.Collisions)
	t := &Table{
		ID:     "fig13c",
		Title:  "Effect of td_max on (Snow, Collisions)",
		Header: []string{"td_max", "windows", "runtime_ms"},
	}
	for _, tdMax := range sweeps {
		opts := core.Options{
			SMin: 12, SMax: 96, TDMax: tdMax, Sigma: 0.12,
			Jitter: 0.01, SignificanceLevel: 3,
			Normalization: mi.NormMaxEntropy,
			Variant:       core.VariantLMN, Seed: cfg.seed(),
		}
		var res core.Result
		var err error
		ms := timeIt(func() { res, err = core.Search(p, opts) })
		if err != nil {
			continue
		}
		t.Append(tdMax, len(res.Windows), fmt.Sprintf("%.1f", ms))
		cfg.logf("fig13c: td_max %d done", tdMax)
	}
	return t
}

// All runs every driver and returns the tables in paper order.
func All(cfg Config) []*Table {
	return []*Table{
		Table1(cfg), Table2(cfg), Table3(cfg), Table4(cfg),
		Fig4(cfg), Fig6(cfg), Fig9(cfg), Fig10(cfg),
		Fig11(cfg), Fig13A(cfg), Fig13B(cfg), Fig13C(cfg),
	}
}
