package mi

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// planeShapes are unions with their cores [a, b): the level-1 and level-3
// neighbourhoods of a window (Δ = 1 and 3), cores flush with either end of
// the union, a lopsided one, the smallest cores and the largest union.
var planeShapes = []struct{ u, a, b int }{
	{5, 1, 4},
	{8, 2, 6},
	{12, 0, 9},
	{14, 3, 14},
	{16, 0, 16},
	{20, 2, 18},
	{26, 6, 20},
	{31, 1, 24},
	{48, 6, 42},
	{allPairsMax, 2, allPairsMax - 2},
}

// TestPlaneMatchesEstimate is the plane's differential test: on every data
// kind and shape, for every k ≤ 8 and k = core − 1, each sub-window that
// contains the core estimates to the bits KSG.Estimate gives on its
// samples. The sub-windows are visited in a shuffled order, each twice, so
// the lazily built networks and the count caches fill in arbitrary orders.
func TestPlaneMatchesEstimate(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var p Plane
	for name, gen := range windowKinds {
		for _, sh := range planeShapes {
			x, y := gen(rng, sh.u)
			core := sh.b - sh.a
			for k := 1; k < core; k++ {
				if k > 8 && k != core-1 {
					continue
				}
				label := fmt.Sprintf("%s/u=%d/core=[%d,%d)/k=%d", name, sh.u, sh.a, sh.b, k)
				checkPlane(t, label, &p, rng, x, y, k, sh.a, sh.b)
			}
		}
	}
}

// checkPlane resets p on (x, y) with core [a, b) and compares its estimates
// of the sub-windows [lo, hi), lo ≤ a and hi ≥ b (24 of them at random when
// there are more), with KSG.Estimate, failing on any bit of difference.
func checkPlane(t *testing.T, label string, p *Plane, rng *rand.Rand, x, y []float64, k, a, b int) {
	t.Helper()
	if !p.Reset(k, x, y, a, b) {
		t.Fatalf("%s: the plane does not serve", label)
	}
	type span struct{ lo, hi int }
	var spans []span
	for lo := 0; lo <= a; lo++ {
		for hi := b; hi <= len(x); hi++ {
			spans = append(spans, span{lo, hi})
		}
	}
	if len(spans) > 24 {
		rng.Shuffle(len(spans), func(i, j int) { spans[i], spans[j] = spans[j], spans[i] })
		spans = spans[:24]
	}
	order := append(rng.Perm(len(spans)), rng.Perm(len(spans))...)
	est := NewKSG(k, BackendKDTree)
	for _, o := range order {
		lo, hi := spans[o].lo, spans[o].hi
		got, ok := p.Estimate(lo, hi)
		if !ok {
			t.Fatalf("%s: [%d,%d) not served", label, lo, hi)
		}
		want, err := est.Estimate(x[lo:hi], y[lo:hi])
		if err != nil {
			t.Fatalf("%s: [%d,%d): %v", label, lo, hi, err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: [%d,%d): plane %v (%#x), Estimate %v (%#x)", label, lo, hi, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestPlaneRefuses checks what the plane does not serve: unions above
// allPairsMax, cores of k points or fewer, non-finite samples and
// sub-windows that do not contain the core or leave the union. A refused
// Reset also stops the previous union being served, and so does Release,
// which also drops the plane's references to the samples; the next Reset
// serves the same bits as before.
func TestPlaneRefuses(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	x, y := gaussianPair(rng, allPairsMax+1, 0.5)
	var p Plane
	if p.Reset(4, x, y, 2, allPairsMax-2) {
		t.Error("a union of allPairsMax+1 samples is served")
	}
	if p.Reset(4, x[:20], y[:20], 8, 12) {
		t.Error("a core of k points is served")
	}
	if !p.Reset(4, x[:20], y[:20], 8, 13) {
		t.Fatal("a core of k+1 points is not served")
	}
	for _, w := range [][2]int{{9, 20}, {0, 12}, {-1, 20}, {0, 21}} {
		if _, ok := p.Estimate(w[0], w[1]); ok {
			t.Errorf("[%d,%d) is served though it does not contain the core [8,13) inside the union", w[0], w[1])
		}
	}
	want, _ := p.Estimate(0, 20)
	p.Release()
	if p.xs != nil || p.ys != nil {
		t.Error("a released plane still references its samples")
	}
	if _, ok := p.Estimate(0, 20); ok {
		t.Error("a released plane serves an estimate")
	}
	if !p.Reset(4, x[:20], y[:20], 8, 13) {
		t.Fatal("a released plane is not served after a Reset")
	}
	if got, ok := p.Estimate(0, 20); !ok || math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("after Release and Reset: %v (served %v), want %v", got, ok, want)
	}
	y[3] = math.Inf(1)
	if p.Reset(4, x[:20], y[:20], 8, 13) {
		t.Error("a union with a non-finite sample is served")
	}
	if _, ok := p.Estimate(0, 20); ok {
		t.Error("a refused Reset left the previous union served")
	}
}

// TestPlaneAllocs pins that a warm plane allocates nothing, on a Reset and
// on estimates.
func TestPlaneAllocs(t *testing.T) {
	x, y := ar1Pair(rand.New(rand.NewSource(43)), 400)
	var p Plane
	o := 0
	plane := func() {
		o = (o + 37) % 300
		p.Reset(4, x[o:o+50], y[o:o+50], 2, 48)
		for lo := 0; lo <= 2; lo++ {
			for hi := 48; hi <= 50; hi++ {
				if _, ok := p.Estimate(lo, hi); !ok {
					t.Fatal("not served")
				}
			}
		}
	}
	plane()
	if got := testing.AllocsPerRun(20, plane); got != 0 {
		t.Errorf("a warm plane allocates %v per plane, want 0", got)
	}
}

// FuzzPlaneDifferential checks the plane against KSG.Estimate on arbitrary
// unions: data holds one (x, y) byte pair per sample (decoded as in
// FuzzSmallKernelDifferential), ab and bb place the core, and kb picks
// k below the core's size. Every sub-window with lo in {0, 1, a/2, a−1, a}
// and hi in the mirror set must estimate to the last bit of KSG.Estimate.
func FuzzPlaneDifferential(f *testing.F) {
	f.Add(uint8(3), uint8(2), uint8(8), []byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f\x10\x11\x12\x13\x14\x15\x16\x17"))
	f.Add(uint8(0), uint8(1), uint8(5), []byte("\x80\x81\x82\x83\x84\x85\x86\x87\x88\x89\x8a\x8b\x8c\x8d\x8e\x8f"))
	f.Add(uint8(1), uint8(3), uint8(6), []byte("\x05\x05\x05\x05\x05\x05\x05\x05\x8a\x8b\x8b\x8a\x05\x05\x8a\x8a\x05\x8b\x8b\x05"))
	f.Add(uint8(2), uint8(0), uint8(9), []byte("\xc0\xe0\xd0\xf0\xe8\xd8\xff\xc1\x10\x90\x11\x91\x8e\x8f\x86\x87\x01\x01\x02\x02"))
	f.Fuzz(func(t *testing.T, kb, ab, bb uint8, data []byte) {
		u := min(len(data)/2, allPairsMax)
		if u < 2 {
			return
		}
		x, y := fillPair(u, func(i int) (float64, float64) {
			return fuzzSample(data[2*i]), fuzzSample(data[2*i+1])
		})
		a := int(ab) % u
		b := a + 1 + int(bb)%(u-a)
		core := b - a
		if core < 2 {
			var p Plane
			if p.Reset(1, x, y, a, b) {
				t.Fatalf("a core of %d points is served at k = 1", core)
			}
			return
		}
		k := 1 + int(kb)%(core-1)
		var p Plane
		if !p.Reset(k, x, y, a, b) {
			t.Fatalf("u=%d core=[%d,%d) k=%d: the plane does not serve", u, a, b, k)
		}
		est := NewKSG(k, BackendKDTree)
		los := []int{0, 1, a / 2, a - 1, a}
		his := []int{u, u - 1, (b + u) / 2, b + 1, b}
		for _, lo := range los {
			for _, hi := range his {
				if lo < 0 || lo > a || hi < b || hi > u {
					continue
				}
				got, ok := p.Estimate(lo, hi)
				if !ok {
					t.Fatalf("u=%d core=[%d,%d) k=%d: [%d,%d) not served", u, a, b, k, lo, hi)
				}
				want, err := est.Estimate(x[lo:hi], y[lo:hi])
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("u=%d core=[%d,%d) k=%d: [%d,%d): plane %v, Estimate %v", u, a, b, k, lo, hi, got, want)
				}
			}
		}
	})
}

// BenchmarkPlaneEstimate prices a τ-plane both ways: the windows one by
// one through KSG.Estimate, and through a Plane (Reset included). A plane
// is the window [s, s+m) of an AR(1) pair (k = 4) with its start moved by
// −Δ, 0 and +Δ (3 windows), or both ends (9 windows); each iteration takes
// the next offset, so no plane repeats while the branch predictor could
// remember it. ns/op is per plane.
func BenchmarkPlaneEstimate(b *testing.B) {
	const n = 1 << 14
	x, y := ar1Pair(rand.New(rand.NewSource(3)), n)
	for _, m := range []int{16, 48, 91} {
		for _, delta := range []int{1, 3} {
			for _, windows := range []int{3, 9} {
				// The windows [Δ+ds, Δ+m+de) of the union [0, u), for ds
				// and de in {−Δ, 0, +Δ} (de = 0 only for 3 windows), share
				// the core [2Δ, m) (or [2Δ, m+Δ)).
				ends := []int{0}
				u, coreEnd := m+delta, m+delta
				if windows == 9 {
					ends = []int{-delta, 0, delta}
					u, coreEnd = m+2*delta, m
				}
				name := fmt.Sprintf("m=%d/delta=%d/windows=%d", m, delta, windows)
				b.Run(name+"/per-window", func(b *testing.B) {
					est := NewKSG(4, BackendKDTree)
					for i := 0; i < b.N; i++ {
						o := (i * 61) % (n - u)
						for _, ds := range []int{-delta, 0, delta} {
							for _, de := range ends {
								lo, hi := o+delta+ds, o+delta+m+de
								if _, err := est.Estimate(x[lo:hi], y[lo:hi]); err != nil {
									b.Fatal(err)
								}
							}
						}
					}
				})
				b.Run(name+"/plane", func(b *testing.B) {
					var p Plane
					for i := 0; i < b.N; i++ {
						o := (i * 61) % (n - u)
						if !p.Reset(4, x[o:o+u], y[o:o+u], 2*delta, coreEnd) {
							b.Fatal("not served")
						}
						for _, ds := range []int{-delta, 0, delta} {
							for _, de := range ends {
								if _, ok := p.Estimate(delta+ds, delta+m+de); !ok {
									b.Fatal("not served")
								}
							}
						}
					}
				})
			}
		}
	}
}
