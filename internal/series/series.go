// Package series is the time-series substrate of the TYCOS reproduction.
//
// A Series is a uniformly sampled sequence of float64 values (Definition 4.1
// of the paper); a Pair couples two series observed over the same period
// (Definition 4.3). The package also provides summary statistics,
// z-normalisation, resampling and CSV persistence used by the search core,
// the baselines and the experiment harness.
package series

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Series is a uniformly sampled time series: Values[i] is the observation at
// time step i. Name identifies the measured phenomenon and Step is the
// sampling interval expressed in arbitrary time units (used only for
// reporting; the search operates on indices).
type Series struct {
	Name   string
	Step   float64
	Values []float64
}

// New returns a Series with the given name and values sampled at unit step.
func New(name string, values []float64) Series {
	return Series{Name: name, Step: 1, Values: values}
}

// Len returns the number of samples in the series.
func (s Series) Len() int { return len(s.Values) }

// At returns the value at time step i.
func (s Series) At(i int) float64 { return s.Values[i] }

// Slice returns the sub-series covering time steps [start, end] inclusive
// (Definition 4.2). The returned series shares the backing array.
func (s Series) Slice(start, end int) (Series, error) {
	if start < 0 || end >= len(s.Values) || start > end {
		return Series{}, fmt.Errorf("series: slice [%d,%d] out of range for length %d", start, end, len(s.Values))
	}
	return Series{Name: s.Name, Step: s.Step, Values: s.Values[start : end+1]}, nil
}

// Clone returns a deep copy of the series.
func (s Series) Clone() Series {
	v := make([]float64, len(s.Values))
	copy(v, s.Values)
	return Series{Name: s.Name, Step: s.Step, Values: v}
}

// Stats holds summary statistics of a series or window.
type Stats struct {
	N        int
	Mean     float64
	Variance float64 // population variance
	Std      float64
	Min      float64
	Max      float64
}

// Summarize computes summary statistics over values. It returns a zero Stats
// for empty input.
func Summarize(values []float64) Stats {
	n := len(values)
	if n == 0 {
		return Stats{}
	}
	st := Stats{N: n, Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, v := range values {
		sum += v
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
	}
	st.Mean = sum / float64(n)
	var ss float64
	for _, v := range values {
		d := v - st.Mean
		ss += d * d
	}
	st.Variance = ss / float64(n)
	st.Std = math.Sqrt(st.Variance)
	return st
}

// Stats computes summary statistics of the whole series.
func (s Series) Stats() Stats { return Summarize(s.Values) }

// ZNormalize returns a copy of values shifted to zero mean and scaled to unit
// standard deviation. Constant inputs normalise to all zeros.
func ZNormalize(values []float64) []float64 {
	st := Summarize(values)
	out := make([]float64, len(values))
	//lint:allow floateq exact zero-variance sentinel: any nonzero std, however small, is a valid divisor here
	if st.Std == 0 {
		return out
	}
	for i, v := range values {
		out[i] = (v - st.Mean) / st.Std
	}
	return out
}

// Rank replaces each value with its fractional rank in [0,1] (average rank
// for ties). Rank transforms make MI estimation robust to heavy-tailed
// marginals and are a common KSG pre-processing step.
func Rank(values []float64) []float64 {
	n := len(values)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return values[idx[a]] < values[idx[b]] })
	i := 0
	for i < n {
		j := i
		//lint:allow floateq rank ties must group exactly equal values; a tolerance would merge distinct ones
		for j+1 < n && values[idx[j+1]] == values[idx[i]] {
			j++
		}
		avg := float64(i+j) / 2
		for k := i; k <= j; k++ {
			out[idx[k]] = avg / float64(n-1+1) // scale into [0,1)
		}
		i = j + 1
	}
	return out
}

// Resample aggregates the series into buckets of the given factor using the
// mean of each bucket, e.g. factor 60 converts minute resolution to hourly.
// A trailing partial bucket is aggregated as well.
func (s Series) Resample(factor int) (Series, error) {
	if factor <= 0 {
		return Series{}, errors.New("series: resample factor must be positive")
	}
	if factor == 1 {
		return s.Clone(), nil
	}
	n := (len(s.Values) + factor - 1) / factor
	out := make([]float64, 0, n)
	for i := 0; i < len(s.Values); i += factor {
		end := i + factor
		if end > len(s.Values) {
			end = len(s.Values)
		}
		var sum float64
		for _, v := range s.Values[i:end] {
			sum += v
		}
		out = append(out, sum/float64(end-i))
	}
	return Series{Name: s.Name, Step: s.Step * float64(factor), Values: out}, nil
}

// FillMissing replaces NaN entries by linear interpolation between the
// nearest finite neighbours (edge NaNs take the nearest finite value). A
// series with no finite value is zero-filled.
func FillMissing(values []float64) []float64 {
	n := len(values)
	out := make([]float64, n)
	copy(out, values)
	first := -1
	for i, v := range out {
		if !math.IsNaN(v) {
			first = i
			break
		}
	}
	if first == -1 {
		for i := range out {
			out[i] = 0
		}
		return out
	}
	for i := 0; i < first; i++ {
		out[i] = out[first]
	}
	last := first
	for i := first + 1; i < n; i++ {
		if math.IsNaN(out[i]) {
			continue
		}
		if i-last > 1 { // interpolate the gap (last, i)
			step := (out[i] - out[last]) / float64(i-last)
			for k := last + 1; k < i; k++ {
				out[k] = out[last] + step*float64(k-last)
			}
		}
		last = i
	}
	for i := last + 1; i < n; i++ {
		out[i] = out[last]
	}
	return out
}

// Pair couples two series of equal length measured over the same observation
// period (Definition 4.3).
type Pair struct {
	X, Y Series
}

// NewPair validates that x and y have equal length and returns the pair.
func NewPair(x, y Series) (Pair, error) {
	if x.Len() != y.Len() {
		return Pair{}, fmt.Errorf("series: pair length mismatch %d vs %d", x.Len(), y.Len())
	}
	return Pair{X: x, Y: y}, nil
}

// MustPair is NewPair that panics on error; intended for tests and examples
// with statically known lengths.
func MustPair(x, y Series) Pair {
	p, err := NewPair(x, y)
	if err != nil {
		panic(err)
	}
	return p
}

// Len returns the common length of the pair.
func (p Pair) Len() int { return p.X.Len() }

// CheckFinite returns a descriptive error when either series contains a NaN
// or infinite value, naming the series and the first offending index. The
// KSG estimator silently produces garbage distances (and hence garbage
// scores) on non-finite input, so the search validates pairs up front;
// FillMissing repairs NaN gaps by interpolation.
func (p Pair) CheckFinite() error {
	for _, s := range [2]Series{p.X, p.Y} {
		for i, v := range s.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("series: %q has non-finite value %v at index %d", s.Name, v, i)
			}
		}
	}
	return nil
}

// DelaySlice extracts the aligned sub-pair for a time-delay window
// (Definition 4.5): X over [start, end] and Y over [start+delay, end+delay].
// It returns an error if either interval falls outside the observation
// period.
func (p Pair) DelaySlice(start, end, delay int) (xs, ys []float64, err error) {
	return DelaySliceOf(&p, start, end, delay)
}

// DelaySliceOf is DelaySlice on a pair held by pointer: a caller that
// slices its pair once per scored window passes no copy of it.
func DelaySliceOf(p *Pair, start, end, delay int) (xs, ys []float64, err error) {
	if start < 0 || end >= p.X.Len() || start > end {
		return nil, nil, fmt.Errorf("series: window [%d,%d] out of range (n=%d)", start, end, p.X.Len())
	}
	ys0, ye0 := start+delay, end+delay
	if ys0 < 0 || ye0 >= p.Y.Len() {
		return nil, nil, fmt.Errorf("series: delayed window [%d,%d] (τ=%d) out of range (n=%d)", ys0, ye0, delay, p.Y.Len())
	}
	return p.X.Values[start : end+1], p.Y.Values[ys0 : ye0+1], nil
}
