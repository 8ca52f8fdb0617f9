package discovery

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"tycos/internal/baseline"
	"tycos/internal/core"
)

// constantWindow reports whether every value of v equals the first: the
// constancy half of the degenerate-window contract.
func constantWindow(v []float64) bool {
	for _, x := range v[1:] {
		//lint:allow floateq exact constancy test, the contract's own definition
		if x != v[0] {
			return false
		}
	}
	return true
}

// checkScreen screens cand against anchor with the given window, TDMax and
// stride, and checks it against baseline.Pearson: for every grid delay and
// window position, the kernel's |r| at the screen's offsets must equal
// math.Abs(Pearson(…)) bit for bit, a position must read degenerate exactly
// when either window is constant or r is non-finite, and the screen's
// outcome must be the maximum, count and degenerate count those imply.
func checkScreen(t *testing.T, anchor, cand []float64, window, tdMax, stride int) {
	t.Helper()
	n := min(len(anchor), len(cand))
	if n < window {
		return
	}
	opts := Options{Search: core.Options{TDMax: tdMax}, ScreenWindow: window, ScreenStride: stride}
	var s screener
	s.reset(anchor, opts)
	var sc screenScratch
	got, err := s.screen(&sc, cand[:n])
	if err != nil {
		t.Fatalf("window %d: %v", window, err)
	}
	var want screenOutcome
	for _, tau := range s.delays {
		a, b, count := delayStarts(n, window, tau)
		if count <= 0 {
			continue
		}
		rs := make([]float64, count)
		baseline.AbsR(rs, &s.anchor, a, &sc.cand, b)
		want.windows += count
		for i, r := range rs {
			xw, yw := anchor[a+i:a+i+window], cand[b+i:b+i+window]
			ref := math.Abs(baseline.Pearson(xw, yw))
			if constantWindow(xw) || constantWindow(yw) || math.IsNaN(ref) || math.IsInf(ref, 0) {
				want.degenerate++
				if !math.IsNaN(r) {
					t.Fatalf("window %d, τ=%d, start %d: degenerate pair scored %v", window, tau, a+i, r)
				}
				continue
			}
			if math.Float64bits(r) != math.Float64bits(ref) {
				t.Fatalf("window %d, τ=%d, start %d: |r| = %v (%#x), Pearson %v (%#x)",
					window, tau, a+i, r, math.Float64bits(r), ref, math.Float64bits(ref))
			}
			want.maxR = max(want.maxR, ref)
		}
	}
	if got != want {
		t.Fatalf("window %d, TDMax %d, stride %d: screen %+v, want %+v", window, tdMax, stride, got, want)
	}
}

// screenInputs builds the differential suite's series of length n: AR(1)
// noise, a correlated copy, flatline stretches, a 0.5-step lattice, values
// near ±1e300 whose sums overflow, data a few ulps apart and values so small
// that the product of two sums of squares underflows (r = ±Inf).
func screenInputs(rng *rand.Rand, n int) map[string][]float64 {
	gen := func(f func(i int) float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = f(i)
		}
		return v
	}
	var a float64
	ar := gen(func(int) float64 { a = 0.9*a + rng.NormFloat64(); return a })
	flat := gen(func(i int) float64 {
		if i%40 < 25 {
			return 0.1
		}
		return ar[i]
	})
	return map[string][]float64{
		"ar1":      ar,
		"copy":     gen(func(i int) float64 { return 2*ar[i] + 0.05*rng.NormFloat64() }),
		"flatline": flat,
		"lattice":  gen(func(int) float64 { return 0.5 * float64(rng.Intn(5)) }),
		"huge":     gen(func(int) float64 { return float64(rng.Intn(3)-1) * 1e300 }),
		"ulps":     gen(func(int) float64 { return 1 + float64(rng.Intn(4))*0x1p-52 }),
		"tiny":     gen(func(int) float64 { return float64(rng.Intn(5)) * 1e-100 }),
	}
}

// TestScreenMatchesPearson is the screen kernel's differential test: every
// input pair of screenInputs, windows of 2–64 samples, TDMax 0–12, strides
// 1–4, and candidates shorter than the anchor.
func TestScreenMatchesPearson(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n = 90
	in := screenInputs(rng, n)
	names := []string{"ar1", "copy", "flatline", "lattice", "huge", "ulps", "tiny"}
	for i, x := range names {
		y := names[(i+1)%len(names)]
		for _, window := range []int{2, 3, 7, 16, 33, 64} {
			for _, tdMax := range []int{0, 1, 5, 12} {
				for stride := 1; stride <= 4; stride++ {
					checkScreen(t, in[x], in[y], window, tdMax, stride)
					checkScreen(t, in[y], in[y][:n-5-tdMax], window, tdMax, stride)
				}
			}
		}
	}
}

// decodeScreenInput turns fuzz bytes into a screen case: four parameter
// bytes (window 2–64, TDMax 0–12, stride 1–4, candidate shortening), then
// one byte per sample, anchor first. Each sample byte picks a value family
// from its low three bits — the 0.5-step lattice, ±1e300, a few ulps around
// 1, values whose squares underflow, a repeat of the previous sample
// (flatlines), values whose sums of squares multiply to zero, or plain
// values — and a magnitude from the rest.
func decodeScreenInput(data []byte) (anchor, cand []float64, window, tdMax, stride int, ok bool) {
	if len(data) < 8 {
		return nil, nil, 0, 0, 0, false
	}
	window, tdMax, stride = 2+int(data[0])%63, int(data[1])%13, 1+int(data[2])%4
	vals := make([]float64, len(data)-4)
	for i, c := range data[4:] {
		k := float64(c>>3) - 16
		switch c & 7 {
		case 0, 1:
			vals[i] = 0.5 * k
		case 2:
			vals[i] = k * 1e300
		case 3:
			vals[i] = 1 + k*0x1p-52
		case 4:
			vals[i] = k * 1e-170
		case 5:
			if i > 0 {
				vals[i] = vals[i-1]
			}
		case 6:
			vals[i] = k * 1e-100
		default:
			vals[i] = k/7 + 0.01*float64(i)
		}
	}
	half := len(vals) / 2
	anchor, cand = vals[:half], vals[half:]
	cand = cand[:len(cand)-int(data[3])%(len(cand)/2+1)]
	return anchor, cand, window, tdMax, stride, true
}

// FuzzScreenDifferential explores checkScreen on decoded series and
// parameters.
func FuzzScreenDifferential(f *testing.F) {
	f.Add([]byte{6, 4, 1, 0, 8, 16, 24, 33, 41, 49, 9, 17, 26, 34, 42, 50, 58, 3, 11, 19, 27, 35, 43, 51, 59, 6, 14, 22, 30, 38, 46, 54})
	f.Add([]byte{0, 12, 3, 5, 2, 10, 18, 26, 13, 21, 29, 37, 4, 12, 20, 28, 36, 44, 5, 5, 5, 6, 7, 0, 8, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		anchor, cand, window, tdMax, stride, ok := decodeScreenInput(data)
		if !ok {
			return
		}
		checkScreen(t, anchor, cand, window, tdMax, stride)
	})
}

// fleetScreenEngine builds an engine ready to screen one candidate at
// discover-fleet's shape: 160 samples, a 32-sample window and TDMax 8 (nine
// grid delays), with one worker's scratch.
func fleetScreenEngine() *engine {
	anchor, cands := testFleet(160, 1, map[int]int{0: 2}, 5)
	opts := Options{
		Search: core.Options{SMin: 8, SMax: 32, TDMax: 8},
		Screen: true, ScreenWindow: 32, ScreenThreshold: 0.9, Workers: 1,
	}.withDefaults()
	e := &engine{
		anchor: anchor, cands: cands, opts: opts,
		slots:   make([]candState, len(cands)),
		scratch: make([]screenScratch, 1),
	}
	e.screen.reset(anchor.Values, opts)
	return e
}

// TestScreenWarmAllocs: screening a candidate with warm worker scratch
// allocates nothing — no moments, no per-delay buffers.
func TestScreenWarmAllocs(t *testing.T) {
	e := fleetScreenEngine()
	ctx := context.Background()
	e.screenCandidate(ctx, 0, 0)
	if e.slots[0].err != nil {
		t.Fatal(e.slots[0].err)
	}
	if len(e.screen.delays) != 9 || e.slots[0].screen.windows == 0 {
		t.Fatalf("screen shape off: %d delays, outcome %+v", len(e.screen.delays), e.slots[0].screen)
	}
	if got := testing.AllocsPerRun(20, func() { e.screenCandidate(ctx, 0, 0) }); got != 0 {
		t.Errorf("a warm screen allocates %v times per candidate, want 0", got)
	}
}

// BenchmarkScreen screens one candidate at discover-fleet's shape with warm
// worker scratch.
func BenchmarkScreen(b *testing.B) {
	e := fleetScreenEngine()
	ctx := context.Background()
	e.screenCandidate(ctx, 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.screenCandidate(ctx, 0, 0)
	}
}
