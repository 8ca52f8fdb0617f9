package lahc

import (
	"math"
	"math/rand"
	"testing"
)

// sourceTestSeeds returns the seeds TestSourceMatchesMathRand checks: the
// edges of math/rand's seed reduction (0, ±1, multiples of 2³¹−1 and their
// neighbours, the seed it substitutes for 0, the int64 extremes) and
// SplitMix64-spread seeds like the ones restartSeed derives, negative ones
// among them, 200 or more in all.
func sourceTestSeeds() []int64 {
	seeds := []int64{0, 1, -1, 2, -2, srcZeroSeed, -srcZeroSeed, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1}
	for _, k := range []int64{1, 2, 3, 1 << 20, -1, -2, -(1 << 20), math.MaxInt64 / lehmerM, math.MinInt64 / lehmerM} {
		m := k * lehmerM
		seeds = append(seeds, m, m-1, m+1)
	}
	z := uint64(0x2545f4914f6cdd1d)
	for len(seeds) < 220 {
		z += 0x9e3779b97f4a7c15
		h := (z ^ z>>30) * 0xbf58476d1ce4e5b9
		h = (h ^ h>>27) * 0x94d049bb133111eb
		seeds = append(seeds, int64(h^h>>31))
	}
	return seeds
}

// TestSourceMatchesMathRand checks the lazy source against rand.NewSource
// draw for draw through every path a caller takes: the raw Uint64 and Int63
// streams, and rand.Rand's Intn (at the acceptor's power-of-two history
// length and at a length that rejects draws) and Float64. Each stream runs
// well past the register's 607 words, so the draws after the lazily built
// words are checked too.
func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 2500
	for _, seed := range sourceTestSeeds() {
		ref := rand.NewSource(seed).(rand.Source64)
		lazy := NewSource(seed)
		for i := 0; i < draws; i++ {
			if got, want := lazy.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d: Uint64 draw %d is %#x, want %#x", seed, i, got, want)
			}
		}
		ref.Seed(seed)
		lazy.Seed(seed)
		for i := 0; i < draws; i++ {
			if got, want := lazy.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d: Int63 draw %d is %d, want %d", seed, i, got, want)
			}
		}
		refRand, lazyRand := rand.New(rand.NewSource(seed)), rand.New(NewSource(seed))
		for i := 0; i < draws; i++ {
			for _, n := range []int{DefaultHistoryLength, 1<<30 + 1} {
				if got, want := lazyRand.Intn(n), refRand.Intn(n); got != want {
					t.Fatalf("seed %d: Intn(%d) draw %d is %d, want %d", seed, n, i, got, want)
				}
			}
			if got, want := lazyRand.Float64(), refRand.Float64(); got != want {
				t.Fatalf("seed %d: Float64 draw %d is %v, want %v", seed, i, got, want)
			}
		}
	}
}

// TestSourceReseedMatchesFresh checks that re-seeding a source that has
// drawn any number of values, directly or through rand.Rand, gives the
// stream of a fresh source: Seed forgets everything the source built. A
// re-seed and a draw, as every restart makes, allocate nothing.
func TestSourceReseedMatchesFresh(t *testing.T) {
	seeds := sourceTestSeeds()
	used := NewSource(seeds[0])
	usedRand := rand.New(NewSource(seeds[0]))
	for i, seed := range seeds {
		// Leave the used source at every phase of the register: before,
		// among and after the lazily built words.
		for j := 0; j < i*37%1500; j++ {
			used.Uint64()
			usedRand.Int63()
		}
		used.Seed(seed)
		usedRand.Seed(seed)
		fresh := rand.NewSource(seed).(rand.Source64)
		for j := 0; j < 1300; j++ {
			want := fresh.Uint64()
			if got := used.Uint64(); got != want {
				t.Fatalf("seed %d: re-seeded draw %d is %#x, want %#x", seed, j, got, want)
			}
			if got := usedRand.Uint64(); got != want {
				t.Fatalf("seed %d: re-seeded rand.Rand draw %d is %#x, want %#x", seed, j, got, want)
			}
		}
	}
	seed := int64(0)
	if n := testing.AllocsPerRun(100, func() {
		seed++
		usedRand.Seed(seed)
		usedRand.Intn(DefaultHistoryLength)
	}); n != 0 {
		t.Errorf("a re-seed and a draw allocate %v times, want 0", n)
	}
}

// BenchmarkSourceSeed prices a restart's RNG work, one re-seed and 40
// history draws, on the lazy source and on math/rand's.
func BenchmarkSourceSeed(b *testing.B) {
	for _, bc := range []struct {
		name string
		src  rand.Source
	}{{"lazy", NewSource(1)}, {"math_rand", rand.NewSource(1)}} {
		b.Run(bc.name, func(b *testing.B) {
			r := rand.New(bc.src)
			for i := 0; i < b.N; i++ {
				r.Seed(int64(i))
				for j := 0; j < 40; j++ {
					r.Intn(DefaultHistoryLength)
				}
			}
		})
	}
}
