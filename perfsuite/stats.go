package main

import (
	"bufio"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"tycos/internal/synth"
	"tycos/internal/window"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail percentile resting on fewer is one or two unlucky operations, not a
// property of the system.
const minBeyond = 10

// percentileLadder lists the percentiles highestPercentile chooses from.
var percentileLadder = []float64{99.9, 99, 95, 90, 50}

// rankOf returns the 1-based nearest-rank position of the p-th percentile in
// n sorted samples.
func rankOf(p float64, n int) int {
	k := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if k < 1 {
		k = 1
	}
	return k
}

// percentile returns the nearest-rank p-th percentile of samples. It refuses
// (returns an error) when fewer than minBeyond samples lie beyond it: with
// 100 samples p90 has exactly 10 beyond it and is allowed, p95 is not.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	k := rankOf(p, n)
	if n == 0 || n-k < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d (highest supported: p%g)",
			p, n, max(n-k, 0), minBeyond, highestPercentile(n))
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[k-1], nil
}

// highestPercentile returns the highest percentile of percentileLadder that
// n samples support, or 0 when they support none.
func highestPercentile(n int) float64 {
	for _, p := range percentileLadder {
		if n-rankOf(p, n) >= minBeyond {
			return p
		}
	}
	return 0
}

// rank returns the nearest-rank p-th percentile without the tail rule, for
// per-layer figures that carry no regression bound; 0 when samples is empty.
func rank(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rankOf(p, len(s))-1]
}

// mean returns the arithmetic mean, 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns a/b, or 0 when b is zero.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// quartiles returns the first quartile, median and third quartile of xs by
// the exclusive method of Python's statistics.quantiles(xs, n=4), the
// definition the benchmark's acceptance spread is computed with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	// The same integer arithmetic as CPython, extrapolation at tiny n included.
	const n = 4
	at := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(2), at(3)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMiB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// digest hashes canonical result renderings, in order, with FNV-64a.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

// add folds one rendering into the digest.
func (d digest) add(s string) { io.WriteString(d.h, s+"\x00") }

func (d digest) String() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// windowsKey renders accepted windows canonically: the exact float bits of
// each score, so any change in an answer changes the key.
func windowsKey(ws []window.Scored) string {
	var b strings.Builder
	for _, w := range ws {
		fmt.Fprintf(&b, "%d:%d:%d:%x;", w.Start, w.End, w.Delay, math.Float64bits(w.MI))
	}
	return b.String()
}

// plantedRecall is the share of planted segments found: a segment is found
// when an accepted window overlaps it at a delay within one sample of the
// planted delay. Windows are capped at SMax and rarely tile a whole segment,
// so the share of covered samples swings with where climbs stop; whether the
// segment was found at its delay does not.
func plantedRecall(segs []synth.Segment, ws []window.Scored) float64 {
	found := 0
	for _, sg := range segs {
		for _, w := range ws {
			if w.Start <= sg.End && w.End >= sg.Start && abs(w.Delay-sg.Delay) <= 1 {
				found++
				break
			}
		}
	}
	return ratio(float64(found), float64(len(segs)))
}

// searchedRecall averages the recall of the inputs that were searched; a
// short run may not reach every input.
func searchedRecall(seen []bool, recalls []float64) float64 {
	var sum float64
	n := 0
	for i, ok := range seen {
		if ok {
			sum += recalls[i]
			n++
		}
	}
	return ratio(sum, float64(n))
}

// recallFloor is the least recall a run may have before it counts as
// failed. Planted delays stay where every variant finds them, so a run
// below it means the search broke, not that the inputs were unlucky.
const recallFloor = 0.5

// checkRecall counts a run whose recall is below recallFloor as one failed
// operation.
func checkRecall(o *outcome) {
	if o.recall < recallFloor {
		o.fail("recall %.3f below %.2f", o.recall, recallFloor)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// splitmix64 derives independent input seeds from the run seed, so inputs
// with neighbouring indexes do not share correlated random streams.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// inputSeed derives the seed of input i of stream s from the run seed.
func inputSeed(seed int64, s, i int) int64 {
	return int64(splitmix64(splitmix64(splitmix64(uint64(seed))^uint64(s)) ^ uint64(i)))
}
