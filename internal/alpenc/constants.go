// Package alpenc implements ALP's decimal encoding (the paper's primary
// contribution, §3.1–§3.3): vectors of 1024 doubles are losslessly
// encoded as int64 integers via
//
//	ALP_enc = round(n * 10^e * 10^-f)      (Formula 1)
//	ALP_dec = d * 10^f * 10^-e             (Formula 2)
//
// with one exponent e and factor f per vector, found by a two-level
// sampling scheme (§3.2). Values the procedure cannot recover bit-exactly
// become exceptions, patched after decoding. The encoded integers are
// compressed with FFOR (internal/fastlanes).
//
// Every function and method is written once over vector.Float: float32
// runs the same code as float64 with the per-width constants of the
// paper's §4.4 (the 2^22+2^23 rounding sweet spot, exponents up to 10,
// 48-bit exceptions), looked up once per vector in a width table.
package alpenc

import (
	"unsafe"

	"github.com/goalp/alp/internal/vector"
)

// MaxExponent is the largest exponent e considered for float64: 10^e has
// an exact double representation for e <= 21 (paper §2.5), giving the
// 253-combination search space (0 <= f <= e <= 21).
const MaxExponent = 21

// F10 holds the exact double representations of 10^i. 10^i is exactly
// representable for i <= 22.
var F10 = [MaxExponent + 1]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21,
}

// IF10 holds the double closest to 10^-i. These are inexact for i > 0;
// the whole point of ALP's large-exponent scheme (§2.5–§2.6) is that the
// inexactness of the *large* inverse factors is too small to perturb the
// rounded integer.
var IF10 = [MaxExponent + 1]float64{
	1e0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10,
	1e-11, 1e-12, 1e-13, 1e-14, 1e-15, 1e-16, 1e-17, 1e-18, 1e-19, 1e-20, 1e-21,
}

// width holds the constants that differ between the float widths.
type width[T vector.Float] struct {
	// f10 and if10 hold 10^i and the T closest to 10^-i for every
	// exponent i of T's search space: up to 21 for float64 (MaxExponent)
	// and up to 10 for float32, whose 10^i are exact that far.
	f10, if10 []T

	// sweet is 2^(m-1) + 2^m for a T with an m-bit stored mantissa:
	// adding and subtracting it forces a value into the range where it
	// cannot carry a fraction, rounding it to the nearest integer with
	// two SIMD-friendly additions (paper §3.1, "Fast Rounding").
	sweet T

	// limit bounds the magnitude of scaled values eligible for the fast
	// rounding trick, and so of every encoded integer. Beyond it the
	// sweet-spot addition loses integer precision, and float→int
	// conversion of out-of-range values is implementation-defined in Go
	// (unlike C++'s cvttsd2si), so such values are routed to the
	// exception path before conversion.
	limit T

	// rdThreshold is the estimated bits/value beyond which a row-group
	// switches to ALP_rd (§3.4): 3/4 of the raw width for float64. The
	// float32 inverse factors have fewer guard digits, so decimal
	// float32 data carries more exceptions and the cutover sits at 7/8.
	rdThreshold float64
}

var width64 = width[float64]{
	f10: F10[:], if10: IF10[:],
	sweet: 1<<51 + 1<<52, limit: 1 << 51,
	rdThreshold: 48,
}

var width32 = width[float32]{
	f10:   []float32{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10},
	if10:  []float32{1e0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10},
	sweet: 1<<22 + 1<<23, limit: 1 << 22,
	rdThreshold: 28,
}

// widthOf returns T's width table. Callers look it up once per vector
// or sample, never per value.
func widthOf[T vector.Float]() *width[T] {
	var x T
	if unsafe.Sizeof(x) == 4 {
		return any(&width32).(*width[T])
	}
	return any(&width64).(*width[T])
}

// maxExponent returns the largest exponent of T's search space.
func (w *width[T]) maxExponent() int { return len(w.f10) - 1 }

// ValidCombo reports whether (e, f) lies in T's search space; the
// stream readers reject any other combination.
func ValidCombo[T vector.Float](e, f uint8) bool {
	return int(e) <= widthOf[T]().maxExponent() && f <= e
}

// exceptionBits is the storage cost of one exception: the raw value
// plus a 16-bit position (paper §3.1: 80 bits for float64).
func exceptionBits[T vector.Float]() int { return int(vector.BitWidth[T]()) + 16 }

// Combo is one (exponent, factor) combination, f <= e.
type Combo struct {
	E uint8
	F uint8
}

// fastRound rounds x to the nearest integer, ties to even, using the
// sweet-spot trick with sweet = widthOf[T]().sweet. The caller must
// ensure |x| <= widthOf[T]().limit.
func fastRound[T vector.Float](x, sweet T) int64 {
	return int64(x + sweet - sweet)
}
