// Package mi implements the mutual-information machinery of TYCOS: the
// Kraskov–Stögbauer–Grassberger (KSG) k-nearest-neighbour estimator of
// Eq. (2)/(3) of the paper, a histogram (plug-in) estimator, entropy
// estimators, the normalized MI of Section 6.3.1, the top-K adaptive
// threshold of Section 6.3.2, and the incremental estimator of Section 7
// that reuses k-NN and marginal-count state across overlapping windows. The
// incremental estimator keeps its per-point state in an id-indexed slab, not
// a map, and recomputes whole windows as the batch estimator does: small
// windows with the all-pairs kernel, larger ones with a k-d tree.
//
// All information quantities are expressed in nats.
package mi

import (
	"errors"
	"fmt"
)

// ErrTooFewSamples is returned when a window is too small for the requested
// estimator configuration (KSG needs strictly more samples than k).
var ErrTooFewSamples = errors.New("mi: too few samples for estimation")

// Estimator estimates the mutual information between two equal-length sample
// vectors.
type Estimator interface {
	// Estimate returns I(X;Y) in nats for the paired samples (x[i], y[i]).
	Estimate(x, y []float64) (float64, error)
	// Name identifies the estimator in reports and benchmarks.
	Name() string
}

func checkPair(x, y []float64) error {
	if len(x) != len(y) {
		return fmt.Errorf("mi: sample length mismatch %d vs %d", len(x), len(y))
	}
	if len(x) == 0 {
		return ErrTooFewSamples
	}
	return nil
}

// Normalization selects the denominator of the normalized MI Ĩ = I/H
// (Eq. 18). The paper leaves the "window entropy" H_w unspecified; the
// choices below are the defensible instantiations (see DESIGN.md).
type Normalization int

const (
	// NormMaxEntropy divides by log(m), the maximum possible entropy of a
	// window with m samples. It is O(1) to compute, keeps Ĩ within [0,1]
	// (after clamping estimator noise), and preserves the MI ordering of
	// equal-sized windows. It is the zero value on purpose: a search whose
	// options leave the normalization unset gets the sane threshold scale
	// instead of raw nats.
	NormMaxEntropy Normalization = iota
	// NormNone reports the raw MI estimate in nats.
	NormNone
	// NormJointHistogram divides by the plug-in joint entropy of the window
	// estimated from a 2-D histogram; this is the most literal reading of
	// Eq. (18) but costs O(m) per window.
	NormJointHistogram
)

// String returns the normalization's name.
func (n Normalization) String() string {
	switch n {
	case NormNone:
		return "none"
	case NormMaxEntropy:
		return "max-entropy"
	case NormJointHistogram:
		return "joint-histogram"
	default:
		return fmt.Sprintf("Normalization(%d)", int(n))
	}
}

// Normalize scales a raw MI value for a window of m samples according to n.
// The normalized variants clamp at 1 (estimator variance can push the raw
// value slightly above the entropy bound) but deliberately keep negative
// values: an unbiased KSG estimate on independent data is slightly negative,
// and the ordering among those near-zero scores is exactly the texture a
// local search climbs on. Flooring them at 0 would flatten the landscape to
// a plateau and starve the climb of gradients; acceptance thresholds (σ > 0)
// make the final decision, so negative scores never surface as results.
func Normalize(raw float64, x, y []float64, n Normalization) float64 {
	switch n {
	case NormNone:
		return raw
	case NormMaxEntropy:
		return MaxEntropy(raw, len(x))
	case NormJointHistogram:
		h := HistogramJointEntropy(x, y, 0)
		if h <= 0 {
			return 0
		}
		return clampTo1(raw / h)
	default:
		return raw
	}
}

// MaxEntropy is Normalize's NormMaxEntropy case for a window of m samples:
// raw divided by log m, clamped at 1, and 0 for fewer than 2 samples. It
// needs only the window's size, so a scorer that holds no samples calls it
// directly.
func MaxEntropy(raw float64, m int) float64 {
	if m < 2 {
		return 0
	}
	return clampTo1(raw / logSize(m))
}

func clampTo1(v float64) float64 {
	if v > 1 {
		return 1
	}
	return v
}
