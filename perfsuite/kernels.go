package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	tycos "tycos"
	"tycos/internal/checkpoint"
	"tycos/internal/knn"
	"tycos/internal/mi"
	"tycos/internal/obs"
	"tycos/internal/synth"
)

// traceLayers completes a traced run: the probes of the workload's own
// search, the kernel probes, and short sessions of the service workloads
// whose layers the workload's own operations do not reach.
func traceLayers(w *workloadSpec, cfg runConfig, o *outcome) error {
	if err := searchProbes(cfg, o); err != nil {
		return fmt.Errorf("search probes: %w", err)
	}
	if err := kernelProbes(cfg, o.layer); err != nil {
		return fmt.Errorf("kernel probes: %w", err)
	}
	for _, svc := range []struct{ from, workload string }{{fromFleet, wFleet}, {fromDaemon, wDaemon}} {
		if w.Name == svc.workload {
			continue
		}
		sc := cfg
		sc.session = true
		sc.measure = sessionTime
		if cfg.smoke {
			sc.measure = sessionTime / 10
		}
		so, err := workloadByName(svc.workload).run(sc)
		if err != nil {
			return fmt.Errorf("%s session: %w", svc.workload, err)
		}
		o.attempted += so.attempted
		o.failed += so.failed
		o.failures = append(o.failures, so.failures...)
		for _, m := range perLayer {
			if m.From == svc.from {
				o.layer[m.Name] = so.layer[m.Name]
			}
		}
	}
	return nil
}

// searchProbes repeats the workload's representative search with one and
// two restart workers, under the daemon's Metrics+Registry sinks, and under
// the harness's own tracing. The sink and tracing variants run with the
// workload's own worker count and are compared with the plain search at that
// count.
func searchProbes(cfg runConfig, o *outcome) error {
	base := o.probeOpts
	if base.RestartWorkers != 1 && base.RestartWorkers != 2 {
		return fmt.Errorf("probe search runs %d restart workers, want 1 or 2", base.RestartWorkers)
	}
	rw1, rw2, sinks, traced := base, base, base, base
	rw1.RestartWorkers, rw2.RestartWorkers = 1, 2
	sinks.Observer = obs.Multi(obs.NewMetrics(), obs.NewRegistry())
	variants := []*tycos.Options{&rw1, &rw2, &sinks, &traced}
	t := make([][]float64, len(variants))
	// Variants alternate within a repetition, so slow drift in machine speed
	// hits them alike.
	for r := 0; r < cfg.repsFor(probeReps); r++ {
		for v, opts := range variants {
			var probe *coreProbe
			if opts == &traced {
				probe = newCoreProbe()
				traced.Observer = probe
			}
			start := time.Now()
			if _, err := tycos.Search(o.probePair, *opts); err != nil {
				return err
			}
			end := time.Now()
			t[v] = append(t[v], ms(end.Sub(start)))
			if probe != nil {
				traceSearch(cfg.tr, 0, start, end, probe.since(0))
			}
		}
	}
	med := make([]float64, len(t))
	for v := range t {
		_, med[v], _ = quartiles(t[v])
	}
	plain := med[base.RestartWorkers-1]
	o.layer["core.restart_scaling_2w"] = ratio(med[0], med[1])
	o.layer["obs.sink_overhead_pct"] = 100 * (ratio(med[2], plain) - 1)
	o.layer["obs.trace_overhead_pct"] = 100 * (ratio(med[3], plain) - 1)
	o.layer["core.phase_coverage"] = mean(cfg.tr.coverage("search"))
	return nil
}

// timeMedian runs f reps times and returns its median duration.
func timeMedian(reps int, f func(i int)) time.Duration {
	t := make([]float64, reps)
	for i := range t {
		start := time.Now()
		f(i)
		t[i] = float64(time.Since(start))
	}
	_, m, _ := quartiles(t)
	return time.Duration(m)
}

// kernelProbes times direct calls into mi, knn and checkpoint on windows of a
// seeded correlated pair. Batch estimates and incremental slides at equal
// window size are the batch/incremental crossover of the search's scorer.
func kernelProbes(cfg runConfig, l map[string]float64) error {
	c, err := synth.CorrelatedAR(2048, 2, 256, 10, inputSeed(cfg.seed, streamKernel, 0))
	if err != nil {
		return err
	}
	xs, ys := c.Pair.X.Values, c.Pair.Y.Values
	// offset spreads repetitions over the pair so they see different data.
	offset := func(i, m int) int { return (i * 97) % (len(xs) - 2*m) }

	est := mi.NewKSG(mi.DefaultK, mi.BackendKDTree)
	for _, m := range []int{32, 128, 512} {
		var estErr error
		d := timeMedian(cfg.repsFor(30000/m), func(i int) {
			o := offset(i, m)
			if _, err := est.Estimate(xs[o:o+m], ys[o:o+m]); err != nil {
				estErr = err
			}
		})
		if estErr != nil {
			return estErr
		}
		l[fmt.Sprintf("mi.ksg_estimate_us.m%d", m)] = us(d)
	}

	for _, m := range []int{128, 512} {
		ids := make([]int, m)
		pts := make([]knn.Point, m)
		for i := range ids {
			ids[i] = i
			pts[i] = knn.Point{X: xs[i], Y: ys[i]}
		}
		inc := mi.NewIncrementalBulk(mi.DefaultK, knn.GridCellFor(pts, mi.DefaultK), ids, xs[:m], ys[:m])
		before := inc.Ops()
		var miErr error
		slide := timeMedian(len(xs)-m, func(i int) {
			inc.Remove(i)
			inc.Insert(i+m, xs[i+m], ys[i+m])
			if _, err := inc.MI(); err != nil {
				miErr = err
			}
		})
		if miErr != nil {
			return miErr
		}
		after := inc.Ops()
		edits := (after.Inserts - before.Inserts) + (after.Removes - before.Removes)
		l[fmt.Sprintf("mi.inc_slide_us.m%d", m)] = us(slide)
		l[fmt.Sprintf("mi.inc_refreshes_per_edit.m%d", m)] = ratio(float64(after.Refreshes-before.Refreshes), float64(edits))
		reload := timeMedian(cfg.repsFor(6000/m), func(i int) {
			o := offset(i, m)
			inc.Reload(ids, xs[o:o+m], ys[o:o+m])
		})
		l[fmt.Sprintf("mi.inc_reload_us.m%d", m)] = us(reload)
	}

	eng, err := knn.NewEngine("kdtree", knn.Config{K: mi.DefaultK})
	if err != nil {
		return err
	}
	for _, m := range []int{128, 512} {
		pts := make([]knn.Point, m)
		for i := range pts {
			pts[i] = knn.Point{X: xs[i], Y: ys[i]}
		}
		l[fmt.Sprintf("knn.build_us.m%d", m)] = us(timeMedian(cfg.repsFor(20000/m), func(int) {
			eng.Build(pts, xs[:m], ys[:m])
		}))
		if m != 512 {
			continue
		}
		radius := make([]float64, m)
		l["knn.self_query_us.m512"] = us(timeMedian(cfg.repsFor(30), func(int) {
			for i := range pts {
				nn := eng.SelfKNearest(i, mi.DefaultK)
				radius[i] = nn[len(nn)-1].Dist
			}
		}))
		l["knn.count_us.m512"] = us(timeMedian(cfg.repsFor(30), func(int) {
			for i, p := range pts {
				eng.CountX(p.X, radius[i])
				eng.CountY(p.Y, radius[i])
			}
		}))
	}
	return checkpointProbes(cfg, c, l)
}

// checkpointProbes times journal appends without and with fsync, and
// lookups, on temporary journals in the run's scratch directory.
func checkpointProbes(cfg runConfig, c synth.Composite, l map[string]float64) error {
	res, err := tycos.Search(c.Pair, tycos.Options{SMin: 10, SMax: 150, TDMax: 10, Sigma: 0.3, MaxEvaluations: 2000, RestartWorkers: 1})
	if err != nil {
		return err
	}
	res.Stats = res.Stats.Deterministic()
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.tmp, "journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, fsync := range []bool{false, true} {
		j, err := checkpoint.OpenOptions(filepath.Join(dir, fmt.Sprintf("fsync-%v.jsonl", fsync)), checkpoint.Options{Fsync: fsync})
		if err != nil {
			return err
		}
		keys := make([]string, cfg.repsFor(200))
		if fsync {
			keys = keys[:cfg.repsFor(20)]
		}
		for i := range keys {
			keys[i] = fmt.Sprintf("y%d", i)
		}
		var recErr error
		d := timeMedian(len(keys), func(i int) {
			if err := j.Record("x", keys[i], res); err != nil {
				recErr = err
			}
		})
		if recErr != nil {
			j.Close()
			return recErr
		}
		if fsync {
			l["checkpoint.record_fsync_us"] = us(d)
		} else {
			l["checkpoint.record_us"] = us(d)
			missing := 0
			l["checkpoint.lookup_us"] = us(timeMedian(len(keys), func(i int) {
				if _, ok := j.Lookup("x", keys[i]); !ok {
					missing++
				}
			}))
			if missing > 0 {
				j.Close()
				return fmt.Errorf("journal lost %d of %d records", missing, len(keys))
			}
		}
		if err := j.Close(); err != nil {
			return err
		}
	}
	return nil
}
