package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"tycos/internal/series"
)

// TestPlanesChangeNoResult pins the τ-planes' contract: with planes and with
// every batch window estimated from scratch, each variant at one and two
// restart workers returns the same windows and MI bits, the same Stats (the
// work counters MIBatch and MIIncremental included), the same event stream
// and the same counters, memo_hits and the mi.* counters included, apart
// from mi.plane_estimates. Planes must serve some estimates, never more
// than mi.ksg_estimates counts, and none when bypassed. The pair runs as
// drawn and rounded to a 0.5 lattice, whose tied distances are where an
// edge point's place in a network decides the estimate.
func TestPlanesChangeNoResult(t *testing.T) {
	for _, step := range []float64{0, 0.5} {
		t.Run(fmt.Sprintf("lattice=%v", step), func(t *testing.T) {
			checkPlanesChangeNoResult(t, latticePair(parallelTestPair(900), step))
		})
	}
}

// latticePair returns p with every sample rounded to a multiple of step;
// step 0 returns p unchanged.
func latticePair(p series.Pair, step float64) series.Pair {
	if step == 0 {
		return p
	}
	round := func(s series.Series) series.Series {
		out := s.Clone()
		for i, v := range out.Values {
			out.Values[i] = math.Round(v/step) * step
		}
		return out
	}
	return series.Pair{X: round(p.X), Y: round(p.Y)}
}

func checkPlanesChangeNoResult(t *testing.T, p series.Pair) {
	type outcome struct {
		res    Result
		events []string
		counts map[string]int64
	}
	run := func(v Variant, workers int, bypass bool) outcome {
		opts := parallelTestOpts()
		opts.Variant = v
		opts.RestartWorkers = workers
		opts.bypassPlanes = bypass
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
			planes, plain := run(v, workers, false), run(v, workers, true)
			served := planes.counts["mi.plane_estimates"]
			if served <= 0 {
				t.Errorf("%s: planes served no estimate, so the comparison proves nothing", name)
			}
			if est := planes.counts["mi.ksg_estimates"]; served > est {
				t.Errorf("%s: mi.plane_estimates = %d exceeds mi.ksg_estimates = %d", name, served, est)
			}
			if n := plain.counts["mi.plane_estimates"]; n != 0 {
				t.Errorf("%s: bypassed planes served %d estimates", name, n)
			}
			if len(planes.res.Windows) != len(plain.res.Windows) {
				t.Fatalf("%s: %d windows with planes, %d without", name, len(planes.res.Windows), len(plain.res.Windows))
			}
			for i, w := range planes.res.Windows {
				pw := plain.res.Windows[i]
				if w.Window != pw.Window || math.Float64bits(w.MI) != math.Float64bits(pw.MI) {
					t.Errorf("%s: window %d is %v (%v) with planes, %v (%v) without", name, i, w.Window, w.MI, pw.Window, pw.MI)
				}
			}
			ps, bs := planes.res.Stats, plain.res.Stats
			ps.Timing, bs.Timing = Timing{}, Timing{}
			if ps != bs {
				t.Errorf("%s: stats differ\nplanes: %+v\n plain: %+v", name, ps, bs)
			}
			if !reflect.DeepEqual(planes.events, plain.events) {
				t.Errorf("%s: event stream differs (%d vs %d events)", name, len(planes.events), len(plain.events))
			}
			delete(planes.counts, "mi.plane_estimates")
			delete(plain.counts, "mi.plane_estimates")
			if !reflect.DeepEqual(planes.counts, plain.counts) {
				t.Errorf("%s: counters differ\nplanes: %v\n plain: %v", name, planes.counts, plain.counts)
			}
		}
	}
}
