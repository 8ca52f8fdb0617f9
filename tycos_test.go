package tycos_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"tycos"
)

// examplePair embeds y = sin(x) over a delayed window inside noise.
func examplePair(seed int64) tycos.Pair {
	rng := rand.New(rand.NewSource(seed))
	n := 400
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	ar := 0.0
	for i := 120; i <= 220; i++ {
		ar = 0.9*ar + rng.NormFloat64()
		x[i] = ar
		y[i+3] = math.Sin(ar) + 0.05*rng.NormFloat64()
	}
	xs := tycos.NewSeries("x", x)
	ys := tycos.NewSeries("y", y)
	p, err := tycos.NewPair(xs, ys)
	if err != nil {
		panic(err)
	}
	return p
}

func TestPublicSearchEndToEnd(t *testing.T) {
	p := examplePair(1)
	res, err := tycos.Search(p, tycos.Options{
		SMin: 10, SMax: 80, TDMax: 5,
		Sigma:   0.25,
		Variant: tycos.VariantLMN,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) == 0 {
		t.Fatal("no windows found through the public API")
	}
	hit := false
	for _, w := range res.Windows {
		if w.Start < 220 && w.End > 120 {
			hit = true
		}
	}
	if !hit {
		t.Errorf("windows %v miss the planted segment", res.Windows)
	}
	if res.Stats.WindowsEvaluated == 0 {
		t.Error("stats not populated")
	}
}

func TestPublicEstimateMI(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 1000
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = 0.9*x[i] + 0.44*rng.NormFloat64()
	}
	raw, err := tycos.EstimateMI(x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if raw < 0.4 {
		t.Errorf("MI of strongly dependent pair = %v", raw)
	}
	norm := tycos.NormalizedMI(raw, x, y, tycos.NormMaxEntropy)
	if norm <= 0 || norm > 1 {
		t.Errorf("normalized MI = %v", norm)
	}
	if tycos.NormalizedMI(raw, x, y, tycos.NormNone) != raw {
		t.Error("NormNone must pass raw through")
	}
	// A non-finite sample in either series is an error, not an estimate, on
	// windows of any size.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, m := range []int{16, n} {
			xb := append([]float64(nil), x[:m]...)
			yb := append([]float64(nil), y[:m]...)
			xb[m/2] = bad
			if v, err := tycos.EstimateMI(xb, y[:m], 0); err == nil {
				t.Errorf("EstimateMI with x[%d] = %v, m = %d: %v, want an error", m/2, bad, m, v)
			}
			yb[m-1] = bad
			if v, err := tycos.EstimateMI(x[:m], yb, 0); err == nil {
				t.Errorf("EstimateMI with y[%d] = %v, m = %d: %v, want an error", m-1, bad, m, v)
			}
		}
	}
}

func TestPublicSearchSpaceSize(t *testing.T) {
	n := tycos.SearchSpaceSize(1000, tycos.Options{SMin: 10, SMax: 50, TDMax: 5})
	if n <= 0 {
		t.Errorf("search space = %d", n)
	}
}

func TestPublicBruteForce(t *testing.T) {
	p := examplePair(3)
	res, err := tycos.BruteForce(p, tycos.Options{
		SMin: 20, SMax: 30, TDMax: 1, Sigma: 0.35,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range res.Windows {
		if w.MI < 0.35 {
			t.Errorf("brute force returned sub-threshold window %v", w)
		}
	}
}

func ExampleSearch() {
	// A pair that is pure noise except for a perfectly linear stretch.
	rng := rand.New(rand.NewSource(5))
	n := 300
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	for i := 100; i < 200; i++ {
		y[i] = x[i]
	}
	pair, _ := tycos.NewPair(tycos.NewSeries("x", x), tycos.NewSeries("y", y))
	res, _ := tycos.Search(pair, tycos.Options{
		SMin: 10, SMax: 120, TDMax: 2, Sigma: 0.5, Variant: tycos.VariantLMN,
		// Suppress spurious small-window maxima of the KSG estimator.
		SignificanceLevel: 2,
	})
	for _, w := range res.Windows {
		// The climb's exact extent varies by a few samples across versions
		// of the search; report the stable facts.
		fmt.Printf("found a correlated window of ≥90 samples: %t, delay: %d\n", w.Size() >= 90, w.Delay)
	}
	// Output:
	// found a correlated window of ≥90 samples: true, delay: 0
}

func TestPublicSearchContextAndSweep(t *testing.T) {
	p := examplePair(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := tycos.SearchContext(ctx, p, tycos.Options{
		SMin: 10, SMax: 80, TDMax: 5, Sigma: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || res.Stats.StopReason != tycos.StopCancelled {
		t.Errorf("cancelled public search: Partial=%v StopReason=%q", res.Partial, res.Stats.StopReason)
	}

	// A checkpointed sweep through the public API: second run restores
	// every pair from the journal.
	dir := t.TempDir()
	ckpt, err := tycos.OpenCheckpoint(filepath.Join(dir, "sweep.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt.Close()
	ss := []tycos.Series{
		tycos.NewSeries("a", p.X.Values),
		tycos.NewSeries("b", p.Y.Values),
	}
	opts := tycos.Options{SMin: 10, SMax: 80, TDMax: 5, Sigma: 0.25, MaxIdle: 3}
	sw := tycos.SweepOptions{Checkpoint: ckpt, Retries: 1}
	first := tycos.SearchAllContext(context.Background(), ss, opts, sw)
	if len(first) != 1 || first[0].Err != nil {
		t.Fatalf("sweep failed: %+v", first)
	}
	second := tycos.SearchAllContext(context.Background(), ss, opts, sw)
	if !second[0].FromCheckpoint {
		t.Error("journaled pair was recomputed through the public API")
	}
	if ckpt.Len() != 1 {
		t.Errorf("journal Len = %d, want 1", ckpt.Len())
	}
}

func TestPublicLoadAllCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, []byte("a,b,c\n1,4,\n2,,8\n3,6,9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cols, err := tycos.LoadAllCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 3 {
		t.Fatalf("want 3 columns, got %d", len(cols))
	}
	for _, c := range cols {
		for i, v := range c.Values {
			if math.IsNaN(v) {
				t.Errorf("column %q still has NaN at %d", c.Name, i)
			}
		}
	}
}

func TestPublicMaxEvaluationsBudget(t *testing.T) {
	p := examplePair(1)
	res, err := tycos.Search(p, tycos.Options{
		SMin: 10, SMax: 80, TDMax: 5, Sigma: 0.25, MaxEvaluations: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || res.Stats.StopReason != tycos.StopBudget {
		t.Errorf("budgeted search: Partial=%v StopReason=%q", res.Partial, res.Stats.StopReason)
	}
}
