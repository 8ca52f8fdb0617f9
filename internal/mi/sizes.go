package mi

import (
	"math"

	"tycos/internal/mathx"
)

// tabulatedSizes bounds the window sizes whose constants sizeTerms holds:
// every size a batch estimate takes (at most allPairsMax) and the
// incremental windows of common searches.
const tabulatedSizes = 2048

// sizeTerm holds the two constants of an m-sample window that depend on m
// alone: log m, the NormMaxEntropy denominator, and ψ(m), Eq. (9)'s
// window term. Every scored window needs both, and the calls cost more
// than the rest of a window's normalization, or of a table hit.
type sizeTerm struct {
	log, psi float64
}

// sizeTerms[m] holds m's constants, filled from the very calls they stand
// for, so a tabulated constant has the call's bits.
var sizeTerms = func() (t [tabulatedSizes]sizeTerm) {
	for m := range t {
		t[m] = sizeTerm{log: math.Log(float64(m)), psi: mathx.Digamma(float64(m))}
	}
	return t
}()

// logSize returns math.Log(float64(m)).
func logSize(m int) float64 {
	if uint(m) < tabulatedSizes {
		return sizeTerms[m].log
	}
	return math.Log(float64(m))
}

// psiSize returns mathx.Digamma(float64(m)).
func psiSize(m int) float64 {
	if uint(m) < tabulatedSizes {
		return sizeTerms[m].psi
	}
	return mathx.Digamma(float64(m))
}
