package alpenc

import (
	"math/bits"

	"github.com/goalp/alp/internal/fastlanes"
	"github.com/goalp/alp/internal/vector"
)

// Predicate translation into the encoded-integer domain.
//
// For a fixed combination (e, f) the decode map
//
//	dec(d) = fl(fl(T(d) * 10^f) * 10^-e)
//
// is monotone non-decreasing in d: each step is a multiplication by a
// positive constant, and IEEE-754 round-to-nearest is a monotone
// function, so the composition preserves order (plateaus are possible,
// strict order is not required). ALP's lossless contract guarantees
// dec(d) equals the original value bit-exactly for every non-exception
// slot, so for a closed float interval [lo, hi] the qualifying encoded
// integers are exactly
//
//	{ d : dec(d) >= lo } ∩ { d : dec(d) <= hi } = [dlo, dhi]
//
// — an upward-closed set intersected with a downward-closed one. The
// boundaries are found by binary search over the encodable range
// (fast rounding confines encoded integers to ±2^51 for float64 and
// ±2^22 for float32), which makes the translation exact with ~2·52
// multiplications per vector, amortized over 1024 values.

// EncodedRange translates the closed float interval [lo, hi] (infinite
// endpoints allowed, NaN not allowed) into the encoded-integer domain
// of combination (e, f): on ok, every non-exception encoded integer d
// of a vector using (e, f) satisfies dec(d) ∈ [lo, hi] ⟺ d ∈
// [dlo, dhi]. ok=false means no encodable integer can qualify (the
// caller still has to evaluate the float predicate over exceptions).
// Encoded integers lie within ±widthOf[T]().limit, so the search does.
func EncodedRange[T vector.Float](lo, hi T, e, f uint8) (dlo, dhi int64, ok bool) {
	w := widthOf[T]()
	df, de := w.f10[f], w.if10[e]
	limit := int64(w.limit)
	if decodeOne(limit, df, de) < lo || decodeOne(-limit, df, de) > hi {
		return 0, 0, false
	}
	dlo = encodedLowerBound(lo, limit, df, de)
	dhi = encodedUpperBound(hi, limit, df, de)
	if dlo > dhi {
		return 0, 0, false
	}
	return dlo, dhi, true
}

// decodeOne applies Formula 2 to a single encoded integer.
func decodeOne[T vector.Float](d int64, df, de T) T {
	return T(d) * df * de
}

// encodedLowerBound returns the smallest d in [-limit, limit] with
// dec(d) >= lo. The caller has checked that at least one such d exists.
func encodedLowerBound[T vector.Float](lo T, limit int64, df, de T) int64 {
	l, h := -limit, limit
	for l < h {
		m := l + (h-l)/2
		if decodeOne(m, df, de) >= lo {
			h = m
		} else {
			l = m + 1
		}
	}
	return l
}

// encodedUpperBound returns the largest d in [-limit, limit] with
// dec(d) <= hi. The caller has checked that at least one such d exists.
func encodedUpperBound[T vector.Float](hi T, limit int64, df, de T) int64 {
	l, h := -limit, limit
	for l < h {
		m := l + (h-l+1)/2
		if decodeOne(m, df, de) <= hi {
			l = m
		} else {
			h = m - 1
		}
	}
	return l
}

// Filter evaluates the closed range [lo, hi] over the vector in the
// encoded domain, writing a selection bitmap into sel
// (fastlanes.SelWords(v.N) words, fully overwritten) and returning the
// match count.
//
// Non-exception slots are decided by the fused FFOR unpack+compare
// kernel without reconstructing any float. Exception slots hold a
// placeholder integer in the FFOR payload, so whatever the kernel
// computed for them is discarded and replaced by the float-domain
// predicate over the stored exception value — this is also what makes
// NaN never match and ±Inf, -0.0 and out-of-range values behave exactly
// like a decode-then-filter scan.
//
// scratch must hold v.N int64s; on return it holds the raw packed
// integers, the invariant GatherSelected relies on.
func (v *VectorOf[T]) Filter(lo, hi T, sel []uint64, scratch []int64) int {
	var count int
	if dlo, dhi, ok := EncodedRange(lo, hi, v.E, v.F); ok {
		count = v.Ints.FilterRange(dlo, dhi, sel, scratch)
	} else {
		for i := 0; i < fastlanes.SelWords(v.N); i++ {
			sel[i] = 0
		}
	}
	for k, pos := range v.ExcPos {
		x := v.ExcVals[k]
		want := x >= lo && x <= hi // false for NaN
		word, bit := int(pos)>>6, uint64(1)<<uint(pos&63)
		has := sel[word]&bit != 0
		if want && !has {
			sel[word] |= bit
			count++
		} else if !want && has {
			sel[word] &^= bit
			count--
		}
	}
	return count
}

// GatherSelected materializes the rows selected by sel into dst
// (written densely from index 0, in position order) and returns how
// many were written. It must be called right after Filter with the
// same scratch buffer: selected non-exception rows are reconstructed
// from the raw packed integers left in scratch, selected exception
// rows come from the exception segment. Only qualifying rows are ever
// converted to floats.
func (v *VectorOf[T]) GatherSelected(sel []uint64, scratch []int64, dst []T) int {
	w := widthOf[T]()
	df, de := w.f10[v.F], w.if10[v.E]
	base := v.Ints.Base
	n := 0
	k := 0
	for w := 0; w < fastlanes.SelWords(v.N); w++ {
		word := sel[w]
		for word != 0 {
			i := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			for k < len(v.ExcPos) && int(v.ExcPos[k]) < i {
				k++
			}
			if k < len(v.ExcPos) && int(v.ExcPos[k]) == i {
				dst[n] = v.ExcVals[k]
			} else {
				dst[n] = T(scratch[i]+base) * df * de
			}
			n++
		}
	}
	return n
}
