package alpenc

import (
	"github.com/goalp/alp/internal/fastlanes"
	"github.com/goalp/alp/internal/vector"
)

// VectorOf is one ALP-encoded vector of T values: the FFOR-packed
// integers plus the exception segment. The exponent and factor are
// stored once per vector (paper §3.1, "Vectorized Compression").
type VectorOf[T vector.Float] struct {
	E, F    uint8
	N       int
	Ints    fastlanes.FFOR
	ExcPos  []uint16
	ExcVals []T
}

// Vector is an ALP-encoded vector of float64 values.
type Vector = VectorOf[float64]

// EncodeVector encodes src (at most one vector of values) with the given
// combination, following Algorithm 1: encode all values branch-free,
// verify by decoding, collect exceptions, replace exception slots with
// the first successfully encoded integer, then FFOR the integers.
// The scratch buffer, when non-nil, must hold len(src) int64s and avoids
// a per-vector allocation.
func EncodeVector[T vector.Float](src []T, c Combo, scratch []int64) VectorOf[T] {
	n := len(src)
	enc := scratch
	if enc == nil {
		enc = make([]int64, n)
	}
	enc = enc[:n]
	w := widthOf[T]()
	fe, ff := w.f10[c.E], w.if10[c.F]
	de, df := w.if10[c.E], w.f10[c.F]
	sweet, lo, hi := w.sweet, -w.limit, w.limit

	v := VectorOf[T]{E: c.E, F: c.F, N: n}

	// Encode + verify. The verification decode runs in the same loop so
	// the scaled product is computed once (Algorithm 1 lines 7-12).
	excIdx := make([]uint16, 0, 8)
	for i, x := range src {
		scaled := x * fe * ff
		var d int64
		if scaled >= lo && scaled <= hi {
			d = fastRound(scaled, sweet)
		}
		// Otherwise NaN, ±Inf or out of fast-rounding range: certain
		// exception, and d stays 0.
		enc[i] = d
		if vector.ToBits(T(d)*df*de) != vector.ToBits(x) {
			excIdx = append(excIdx, uint16(i))
		}
	}

	// Fetch the first successfully encoded integer (FIND_FIRST_ENCODED)
	// and overwrite exception slots with it so they do not widen the
	// bit-packing (Algorithm 1 lines 19-24).
	if len(excIdx) > 0 {
		first := findFirstEncoded(enc, excIdx)
		v.ExcPos = excIdx
		v.ExcVals = make([]T, len(excIdx))
		for k, pos := range excIdx {
			v.ExcVals[k] = src[pos]
			enc[pos] = first
		}
	}

	v.Ints = fastlanes.EncodeFFOR(enc)
	return v
}

// findFirstEncoded returns the first element of enc whose index is not
// in the (sorted) exception index list, or 0 if every value excepted.
func findFirstEncoded(enc []int64, excIdx []uint16) int64 {
	k := 0
	for i := range enc {
		if k < len(excIdx) && int(excIdx[k]) == i {
			k++
			continue
		}
		return enc[i]
	}
	return 0
}

// Decode decompresses the vector into dst (len dst == v.N), following
// Algorithm 2: unFFOR, multiply by 10^f*10^-e, patch exceptions.
func (v *VectorOf[T]) Decode(dst []T, scratch []int64) {
	ints := v.ints(scratch)
	v.Ints.Decode(ints)
	// The loop is finish's, written out: the decode of every scan keeps
	// no call between the unpack and the multiply.
	w := widthOf[T]()
	df, de := w.f10[v.F], w.if10[v.E]
	for i, d := range ints {
		dst[i] = T(d) * df * de
	}
	for k, pos := range v.ExcPos {
		dst[pos] = v.ExcVals[k]
	}
}

// DecodeUnfused is Decode with the FFOR base addition performed in its
// own pass (three passes total instead of two). It is the unfused
// comparand of the Figure 5 kernel-fusion ablation.
func (v *VectorOf[T]) DecodeUnfused(dst []T, scratch []int64) {
	ints := v.ints(scratch)
	v.Ints.DecodeUnfused(ints)
	v.finish(dst, ints)
}

// DecodeGeneric is Decode with the width-parametric scalar unpacking
// loop ("Scalar" variant in the Figure 4 ablation).
func (v *VectorOf[T]) DecodeGeneric(dst []T, scratch []int64) {
	ints := v.ints(scratch)
	v.Ints.DecodeGeneric(ints)
	v.finish(dst, ints)
}

// ints returns scratch cut to v.N integers, or a new buffer when
// scratch is nil.
func (v *VectorOf[T]) ints(scratch []int64) []int64 {
	if scratch == nil {
		return make([]int64, v.N)
	}
	return scratch[:v.N]
}

// finish applies Formula 2 to the unpacked integers and patches the
// exceptions: the second half of the ablation decodes.
func (v *VectorOf[T]) finish(dst []T, ints []int64) {
	w := widthOf[T]()
	df, de := w.f10[v.F], w.if10[v.E]
	for i, d := range ints {
		dst[i] = T(d) * df * de
	}
	for k, pos := range v.ExcPos {
		dst[pos] = v.ExcVals[k]
	}
}

// Exceptions returns the number of exceptions in the vector.
func (v *VectorOf[T]) Exceptions() int { return len(v.ExcPos) }

// SizeBits returns the exact compressed size in bits: FFOR payload,
// exception segment, the (e, f) byte pair and a 16-bit exception count.
func (v *VectorOf[T]) SizeBits() int {
	return v.Ints.SizeBits() + len(v.ExcPos)*exceptionBits[T]() + 16 + 16
}
