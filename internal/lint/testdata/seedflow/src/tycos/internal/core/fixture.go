// Package core is a fixture stand-in for the deterministic search core: the
// seedflow analyzer scopes by import path, so this tree impersonates
// tycos/internal/core and carries its own copy of the SplitMix64 idiom.
package core

import (
	"math/rand"

	"tycos/internal/lahc"
)

// splitmix64 is the finalizer; its name marks it as the derivation primitive.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// restartSeed derives through the mixer; the DerivesSeed fact propagates.
func restartSeed(root int64, seg, restart int) int64 {
	h := splitmix64(uint64(root))
	h = splitmix64(h ^ uint64(seg))
	h = splitmix64(h ^ uint64(restart))
	return int64(h)
}

func derivedRNG(root int64, seg, restart int) *rand.Rand {
	return rand.New(rand.NewSource(restartSeed(root, seg, restart))) // derived: no finding
}

func convertedRNG(root int64) *rand.Rand {
	return rand.New(rand.NewSource(int64(splitmix64(uint64(root))))) // conversion unwraps: no finding
}

func offsetRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed + 0x5eed)) // want "not derived through the SplitMix64 idiom"
}

func rawRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) // want "not derived through the SplitMix64 idiom"
}

func literalRNG() *rand.Rand {
	return rand.New(rand.NewSource(1)) // want "not derived through the SplitMix64 idiom"
}

// allowedRNG carries a suppression with a stated reason: no finding.
func allowedRNG(seed int64) *rand.Rand {
	//lint:allow seedflow fixture: domain offset pinned by committed goldens
	return rand.New(rand.NewSource(seed + 1))
}

// reseed re-seeds one generator per restart: the (*rand.Rand).Seed argument
// is checked like a source constructor's.
func reseed(r *rand.Rand, root int64, seg, restart int) {
	r.Seed(restartSeed(root, seg, restart)) // derived: no finding
	r.Seed(root + int64(restart))           // want "not derived through the SplitMix64 idiom"
}

// lazyRNG builds the acceptor's RNG on the lazily seeded source: its
// constructor is a seed sink like rand.NewSource.
func lazyRNG(root int64, seg, restart int) *rand.Rand {
	return rand.New(lahc.NewSource(restartSeed(root, seg, restart))) // derived: no finding
}

func rawLazyRNG(seed int64) *rand.Rand {
	return rand.New(lahc.NewSource(seed)) // want "lahc.NewSource seed is not derived through the SplitMix64 idiom"
}

// reseedLazy re-seeds the source itself: Source.Seed is checked like
// (*rand.Rand).Seed.
func reseedLazy(s *lahc.Source, root int64, seg, restart int) {
	s.Seed(restartSeed(root, seg, restart)) // derived: no finding
	s.Seed(root + 1)                        // want "lahc.Seed seed is not derived"
}
