package alpenc

import (
	"math/bits"

	"github.com/goalp/alp/internal/fastlanes"
)

// SelectedExceptions counts the exception slots whose position is set
// in sel — the exact exception count a RepackSelected vector would
// carry, so the scan frame policy can cost the repacked encoding
// without building it.
func (v *VectorOf[T]) SelectedExceptions(sel []uint64) int {
	n := 0
	for _, pos := range v.ExcPos {
		if sel[pos>>6]&(1<<uint(pos&63)) != 0 {
			n++
		}
	}
	return n
}

// RepackSelected builds a new vector holding only the rows selected by
// sel, in position order, re-encoded under the same (E, F) combination —
// the sparse-selection payload of the scan wire format. Because the
// combination is unchanged, every non-exception row of the repacked
// vector decodes through the exact float path GatherSelected runs
// (T(d) * 10^F * 10^-E), so the repacked vector is bit-identical to
// gathering the selected rows locally; exception rows carry their
// stored value verbatim at their new (compacted) positions.
//
// It must be called right after Filter with the same scratch buffer:
// selected non-exception integers are read from the raw packed values
// Filter left in scratch. ints is the gather buffer for the encoded
// integers (room for the selection count; pass a vector.Size buffer to
// cover any selection). The FFOR re-pack recomputes base and width over
// the selected integers only, so a narrow selection usually packs
// narrower than the original vector.
func (v *VectorOf[T]) RepackSelected(sel []uint64, scratch []int64, ints []int64) VectorOf[T] {
	base := v.Ints.Base
	n := 0
	k := 0
	var excPos []uint16
	var excVals []T
	for w := 0; w < fastlanes.SelWords(v.N); w++ {
		word := sel[w]
		for word != 0 {
			i := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			for k < len(v.ExcPos) && int(v.ExcPos[k]) < i {
				k++
			}
			if k < len(v.ExcPos) && int(v.ExcPos[k]) == i {
				excPos = append(excPos, uint16(n))
				excVals = append(excVals, v.ExcVals[k])
				ints[n] = 0 // placeholder, patched below
			} else {
				ints[n] = scratch[i] + base
			}
			n++
		}
	}
	// Exception slots hold a placeholder that must not widen the FFOR
	// range: the first selected non-exception integer (0 if the whole
	// selection is exceptions, in which case the range is degenerate
	// anyway).
	if len(excPos) > 0 && len(excPos) < n {
		var fill int64
		e := 0
		for i := 0; i < n; i++ {
			if e < len(excPos) && int(excPos[e]) == i {
				e++
				continue
			}
			fill = ints[i]
			break
		}
		for _, p := range excPos {
			ints[p] = fill
		}
	}
	return VectorOf[T]{
		E:       v.E,
		F:       v.F,
		N:       n,
		Ints:    fastlanes.EncodeFFOR(ints[:n]),
		ExcPos:  excPos,
		ExcVals: excVals,
	}
}
