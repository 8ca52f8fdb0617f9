// Package mathx provides the special functions and numeric helpers that the
// TYCOS mutual-information machinery depends on: the digamma function used by
// the KSG estimator, harmonic numbers, and tolerant float comparisons.
//
// Everything here is hand-rolled from standard numerical recipes because the
// module is restricted to the Go standard library.
package mathx

import "math"

// Euler is the Euler–Mascheroni constant γ.
const Euler = 0.57721566490153286060651209008240243104215933593992

// digammaCoef holds the asymptotic-expansion coefficients of ψ(x):
// ψ(x) ≈ ln x − 1/(2x) − Σ B_{2n}/(2n·x^{2n}).
var digammaCoef = [...]float64{
	1.0 / 12.0,
	-1.0 / 120.0,
	1.0 / 252.0,
	-1.0 / 240.0,
	1.0 / 132.0,
	-691.0 / 32760.0,
	1.0 / 12.0,
}

// Digamma returns ψ(x), the logarithmic derivative of the Gamma function.
//
// For x ≤ 0 at integer points ψ has poles; those inputs return NaN (negative
// non-integers are handled through the reflection formula). Accuracy is
// better than 1e-12 over the domain exercised by the KSG estimator (positive
// integers and half-integers).
func Digamma(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return x
	}
	var result float64
	if x <= 0 {
		if x == math.Trunc(x) {
			return math.NaN() // pole
		}
		// Reflection: ψ(1−x) − ψ(x) = π·cot(πx).
		result -= math.Pi / math.Tan(math.Pi*x)
		x = 1 - x
	}
	// Recurrence ψ(x) = ψ(x+1) − 1/x until x is large enough for the
	// asymptotic series.
	for x < 6 {
		result -= 1 / x
		x++
	}
	result += math.Log(x) - 1/(2*x)
	inv2 := 1 / (x * x)
	pow := inv2
	for _, c := range digammaCoef {
		result -= c * pow
		pow *= inv2
	}
	return result
}

// digammaIntTable caches ψ(n) for n = 1..len−1; the KSG estimator evaluates
// ψ at small integer counts in its innermost loop.
var digammaIntTable = func() []float64 {
	t := make([]float64, 2049)
	t[0] = math.NaN()
	h := 0.0
	for n := 1; n < len(t); n++ {
		t[n] = h - Euler // ψ(n) = H_{n−1} − γ
		h += 1 / float64(n)
	}
	return t
}()

// DigammaInt returns ψ(n) for a positive integer n using the exact identity
// ψ(n) = H_{n−1} − γ, served from a precomputed table for the small counts
// that dominate KSG marginal terms and falling back to Digamma above it.
func DigammaInt(n int) float64 {
	if n <= 0 {
		return math.NaN()
	}
	if n < len(digammaIntTable) {
		return digammaIntTable[n]
	}
	return Digamma(float64(n))
}

// Harmonic returns the n-th harmonic number H_n = Σ_{i=1..n} 1/i, with
// H_0 = 0.
func Harmonic(n int) float64 {
	var h float64
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	return h
}

// AlmostEqual reports whether a and b differ by at most tol, treating NaN as
// unequal to everything and infinities as equal only when identical.
func AlmostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= tol
}
