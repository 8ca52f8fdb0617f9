package checkpoint

import (
	"fmt"
	"io"
	"math"

	"tycos/internal/core"
)

// AlgorithmVersion names the search algorithm's answers: bump it in every
// change that changes a result (a window, a score or a ranking) for some
// input and options. HashOptions writes it into every journal fingerprint,
// so a daemon or a resumed sweep upgraded past such a change recomputes
// instead of replaying answers the new code would not give.
// TestAlgorithmVersionPinsGoldens ties each version to the golden windows.
const AlgorithmVersion = 1

// HashOptions writes the algorithm version and the canonical serialization
// of every result-affecting core.Options field to w. It is the single place
// option fields enter a journal fingerprint: the daemon's search keys and
// the discovery engine's per-candidate keys both delegate here, so a new
// result-affecting option added to this function invalidates stale journal
// entries everywhere at once instead of poisoning replay in whichever
// caller forgot it.
//
// The byte layout is pinned by TestHashOptionsGolden. The result-invariant
// fields — RestartWorkers and Observer — are deliberately absent: each
// carries a dynamic test pinning that it cannot change results, and the
// fingerprintcov analyzer's allow-list mirrors this set.
func HashOptions(w io.Writer, o core.Options) {
	fmt.Fprintf(w, "v%d|", AlgorithmVersion)
	fmt.Fprintf(w, "%d|%d|%d|%g|%g|%d|%d|%d|%d|%g|%d|%d|%d|%g|%d|%g",
		o.SMin, o.SMax, o.TDMax, o.Sigma, o.Epsilon, o.K, o.Delta, o.MaxIdle,
		o.HistoryLength, o.MinImprovement, int(o.Normalization), o.TopK,
		int(o.Variant), o.Jitter, o.MaxEvaluations, o.SignificanceLevel)
	fmt.Fprintf(w, "|%d", o.Seed)
}

// HashValues writes the FNV-64a digest of the values' IEEE-754 bits (each
// value's eight bytes, least significant first) to w as "d<hex>|". A
// journal fingerprint folds it in for each series a search reads, so a
// journaled answer is replayed only for the same data, not merely for data
// of the same names and length.
func HashValues(w io.Writer, values []float64) {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, v := range values {
		b := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			h ^= b & 0xff
			h *= prime
			b >>= 8
		}
	}
	fmt.Fprintf(w, "d%016x|", h)
}
