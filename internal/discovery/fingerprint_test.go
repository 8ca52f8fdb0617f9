package discovery

import (
	"testing"

	"tycos/internal/core"
	"tycos/internal/mi"
)

// TestFingerprintUnchangedByDedupe pins the discovery journal fingerprints
// to exact hex values. They matched the pre-dedupe hand-rolled serialization
// until checkpoint.AlgorithmVersion entered the hashed bytes, and changed
// again when the digests of the anchor's and the candidate's aligned values
// did (a journal written before either recomputes once); they change again
// only with that version, the HashOptions layout or HashValues. Discovery
// journals key on these bytes: if this test fails unexpectedly, every
// existing journal entry silently stops replaying.
func TestFingerprintUnchangedByDedupe(t *testing.T) {
	full := core.Options{
		SMin: 6, SMax: 96, TDMax: 30,
		Sigma: 0.25, Epsilon: 0.0625,
		K: 4, Delta: 1, MaxIdle: 5,
		HistoryLength:     7,
		MinImprovement:    0.005,
		Normalization:     mi.NormNone,
		TopK:              3,
		Variant:           core.VariantLMN,
		Jitter:            0.01,
		MaxEvaluations:    1000,
		SignificanceLevel: 2.5,
		Seed:              42,
	}
	cases := []struct {
		name         string
		anchor, cand string
		n, index     int
		opts         core.Options
		want         string
	}{
		{"full", "anchor", "cand", 512, 7, full, "328c3292612b88f0"},
		{"zero", "a", "b", 0, 0, core.Options{}, "48b071803a2304a4"},
		{"seeded", "x", "y", 100, 3, core.Options{Seed: -9}, "4758f077b4c093a2"},
	}
	for _, tc := range cases {
		av, cv := make([]float64, tc.n), make([]float64, tc.n)
		for i := range av {
			av[i], cv[i] = float64(i)/4, 1-float64(i*i)/8
		}
		if got := fingerprint(tc.anchor, tc.cand, av, cv, tc.index, tc.opts); got != tc.want {
			t.Errorf("%s: fingerprint = %s, want %s", tc.name, got, tc.want)
		}
	}
}
