package vector

import (
	"math"
	"unsafe"
)

// Float is the element type of a column. ALP and ALP_rd are written
// once over both IEEE-754 widths (paper §4.4); each instantiation is
// compiled separately, so the width tests below fold away and the
// float64 loops are the ones a float64-only codec would have.
type Float interface{ float32 | float64 }

// BitWidth returns the width of T in bits: 32 or 64.
func BitWidth[T Float]() uint {
	var x T
	return uint(unsafe.Sizeof(x)) * 8
}

// ToBits returns the bit pattern of x, zero-extended to 64 bits.
func ToBits[T Float](x T) uint64 {
	if unsafe.Sizeof(x) == 4 {
		return uint64(math.Float32bits(float32(x)))
	}
	return math.Float64bits(float64(x))
}

// FromBits returns the T whose bit pattern is the low BitWidth[T]()
// bits of b.
func FromBits[T Float](b uint64) T {
	var x T
	if unsafe.Sizeof(x) == 4 {
		return T(math.Float32frombits(uint32(b)))
	}
	return T(math.Float64frombits(b))
}
