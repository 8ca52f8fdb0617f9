package lahc

import "math/rand"

// Source is a math/rand Source64 whose stream is, bit for bit, that of
// rand.NewSource with the same seed, but whose Seed costs O(1).
//
// math/rand's source is an additive lagged-Fibonacci register of srcLen
// words. Its Seed fills every word at once: word i XORs a fixed "cooked"
// value with three consecutive outputs of a Lehmer generator
// (x ← 48271·x mod 2³¹−1) started from the seed, 1,841 Lehmer steps in all.
// A climb restarted from a fresh seed draws a few dozen values and reads a
// few dozen words. Source only records the seed, and builds each word the
// first time a draw reads it, jumping the Lehmer generator straight to that
// word's outputs with a tabulated power of the multiplier.
//
// The first srcLen−srcTap draws after a seed are the only ones that read a
// word nothing has built: draw n reads feed word srcLen−srcTap−1−n, which
// no draw has read yet, and, while n < srcTap, tap word srcLen−1−n, which
// draw n+srcLen−srcTap reads again as its feed word. Later draws read only
// words earlier draws built or wrote, exactly as math/rand's do.
type Source struct {
	vec       [srcLen]int64
	x0        uint64 // the seed reduced to a Lehmer state in [1, 2³¹−1)
	tap, feed int
	drawn     int // draws since the seed, counted up to srcLen−srcTap
}

const (
	srcLen  = 607 // math/rand's register length
	srcTap  = 273 // its tap distance
	lehmerA = 48271
	lehmerM = 1<<31 - 1
	// srcSkip is the number of Lehmer steps math/rand's Seed discards
	// before word 0's first output.
	srcSkip = 20
	// srcZeroSeed is the state math/rand substitutes for a seed ≡ 0.
	srcZeroSeed = 89482311
)

// NewSource returns a Source seeded with seed: its stream is that of
// rand.NewSource(seed).
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed restarts the stream from seed, as rand.NewSource(seed) would start
// it, whatever the source drew before.
func (s *Source) Seed(seed int64) {
	s.x0 = lehmerState(seed)
	s.tap, s.feed, s.drawn = 0, srcLen-srcTap, 0
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() &^ (1 << 63))
}

// Uint64 returns a pseudo-random 64-bit integer.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += srcLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += srcLen
	}
	if s.drawn < srcLen-srcTap {
		s.vec[s.feed] = s.word(s.feed)
		if s.drawn < srcTap {
			s.vec[s.tap] = s.word(s.tap)
		}
		s.drawn++
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// word returns register word i as math/rand's Seed sets it for the seed
// whose Lehmer state is s.x0.
func (s *Source) word(i int) int64 {
	return seedWord(s.x0, i) ^ cooked[i]
}

// lehmerState reduces a seed as math/rand's Seed does.
func lehmerState(seed int64) uint64 {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = srcZeroSeed
	}
	return uint64(seed)
}

// seedWord returns the Lehmer part of register word i for the state x0:
// its three outputs, from step srcSkip+3i+1 on, shifted and XORed as
// math/rand's Seed does. The shifts drop the bits above 63, as its int64
// shifts do.
func seedWord(x0 uint64, i int) int64 {
	x := x0 * wordJump[i] % lehmerM
	u := x << 40
	x = x * lehmerA % lehmerM
	u ^= x << 20
	x = x * lehmerA % lehmerM
	return int64(u ^ x)
}

// wordJump[i] is 48271^(srcSkip+3i+1) mod 2³¹−1, the multiplier that takes
// the seed's state to word i's first Lehmer output.
var wordJump = func() (t [srcLen]uint64) {
	p := uint64(1)
	for range srcSkip + 1 {
		p = p * lehmerA % lehmerM
	}
	for i := range t {
		t[i] = p
		p = p * lehmerA % lehmerM * lehmerA % lehmerM * lehmerA % lehmerM
	}
	return t
}()

// cooked is math/rand's table of cooked register values, which its Seed
// XORs into every word. It is recovered from the first srcLen outputs of
// rand.NewSource(cookedSeed) rather than copied: draw n adds the feed word
// to the tap word, which is an original word for n < srcTap and draw
// n−srcTap's output after, so the outputs give every original word by
// subtraction, and XORing out cookedSeed's Lehmer part leaves the table.
var cooked = func() (t [srcLen]int64) {
	const cookedSeed = 1
	//lint:allow seedflow the fixed seed only recovers math/rand's cooked table at init; no search draws from this source
	src := rand.NewSource(cookedSeed).(rand.Source64)
	var out [srcLen]int64
	for n := range out {
		out[n] = int64(src.Uint64())
	}
	// Draw n reads feed word (srcLen−srcTap−1−n) mod srcLen and tap word
	// srcLen−1−n.
	for n := srcTap; n < srcLen; n++ {
		t[(2*srcLen-srcTap-1-n)%srcLen] = out[n] - out[n-srcTap]
	}
	for n := range srcTap {
		t[srcLen-srcTap-1-n] = out[n] - t[srcLen-1-n]
	}
	x0 := lehmerState(cookedSeed)
	for i := range t {
		t[i] ^= seedWord(x0, i)
	}
	return t
}()
