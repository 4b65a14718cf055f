package alpenc

import (
	"math"
	"math/bits"

	"github.com/goalp/alp/internal/fastlanes"
)

// Agg is the running state of a filtered aggregate: SUM, COUNT, MIN and
// MAX over the rows that matched so far. Min and Max are +Inf/-Inf
// while Count is zero.
//
// Every fold below copies the accumulators into locals, folds, and
// stores them back once: a loop that accumulated through the *Agg would
// store and reload Sum per row, because the compiler cannot prove the
// pointer does not alias the values being folded. Each fold visits rows
// in order and compares with < and > (the integer folds compare the
// integers, whose decode keeps their order), so the result is
// bit-identical to one sequential fold of the qualifying values.
type Agg struct {
	Sum   float64
	Count int64
	Min   float64
	Max   float64
}

// EmptyAgg returns the aggregate of no rows.
func EmptyAgg() Agg { return Agg{Min: math.Inf(1), Max: math.Inf(-1)} }

// Merge combines b into a: the merge step of per-partition partials.
func (a *Agg) Merge(b Agg) {
	a.Sum += b.Sum
	a.Count += b.Count
	if b.Min < a.Min {
		a.Min = b.Min
	}
	if b.Max > a.Max {
		a.Max = b.Max
	}
}

// Fold adds every value of vals: the fold for rows that are already
// known to match (gathered by the encoded-domain filter, or a vector the
// zone map shows to match entirely).
func (a *Agg) Fold(vals []float64) {
	sum, mn, mx := a.Sum, a.Min, a.Max
	for _, x := range vals {
		sum, mn, mx = add(x, sum, mn, mx)
	}
	a.Sum, a.Min, a.Max = sum, mn, mx
	a.Count += int64(len(vals))
}

// FoldMatching adds the values of vals in [lo, hi] (NaN never matches)
// and returns how many matched: the float-domain filter-and-fold for
// values that are already decoded.
func (a *Agg) FoldMatching(vals []float64, lo, hi float64) int {
	sum, mn, mx := a.Sum, a.Min, a.Max
	count := 0
	for _, x := range vals {
		if x >= lo && x <= hi {
			sum, mn, mx = add(x, sum, mn, mx)
			count++
		}
	}
	a.Sum, a.Min, a.Max = sum, mn, mx
	a.Count += int64(count)
	return count
}

// FoldVector adds every row of v, which must have no exceptions: the
// fold for a vector the zone map shows to match entirely. It unpacks
// the integers into scratch (v.N int64s) and folds them in one loop,
// with no decode buffer and no float compare per row:
//
//   - SUM adds dec(d) = d·10^f·10^-e row by row, in position order: the
//     values and order of Decode followed by Fold. The explicit
//     float64 conversion rounds the product before the add, so no
//     platform contracts the two into a fused multiply-add.
//   - MIN and MAX are dec of the least and greatest integer. dec is
//     monotone non-decreasing in d (an int64-to-float64 conversion and
//     two multiplications by positive constants, each rounding
//     monotonically), finite, and never -0.0, so dec(min d) has the bits
//     of the first least row, which a row-by-row < fold keeps.
func (a *Agg) FoldVector(v *Vector, scratch []int64) {
	ints := scratch[:v.N]
	v.Ints.Decode(ints)
	df, de := F10[v.F], IF10[v.E]
	sum := a.Sum
	dmin, dmax := int64(math.MaxInt64), int64(math.MinInt64)
	for _, d := range ints {
		sum += float64(float64(d) * df * de)
		dmin = min(dmin, d)
		dmax = max(dmax, d)
	}
	a.foldInts(len(ints), sum, dmin, dmax, df, de)
}

// FoldSelected adds the rows of v whose bit is set in sel, in position
// order, the way FoldVector adds every row. v must have no exceptions,
// and it must run right after v.Filter with the same scratch: the rows
// are rebuilt from the raw packed integers Filter leaves there, each
// d taken as scratch[i] + Base with int64 wrap, as Decode does.
func (a *Agg) FoldSelected(v *Vector, sel []uint64, scratch []int64) {
	df, de := F10[v.F], IF10[v.E]
	base := v.Ints.Base
	sum := a.Sum
	dmin, dmax := int64(math.MaxInt64), int64(math.MinInt64)
	n := 0
	for w, word := range sel[:fastlanes.SelWords(v.N)] {
		for word != 0 {
			d := scratch[w<<6|bits.TrailingZeros64(word)] + base
			word &= word - 1
			sum += float64(float64(d) * df * de)
			dmin = min(dmin, d)
			dmax = max(dmax, d)
			n++
		}
	}
	a.foldInts(n, sum, dmin, dmax, df, de)
}

// foldInts finishes an integer fold of n rows: it stores the sum and
// merges the decode of the least and greatest integer into Min and Max
// with < and >, as Merge does.
func (a *Agg) foldInts(n int, sum float64, dmin, dmax int64, df, de float64) {
	a.Sum = sum
	if n == 0 {
		return
	}
	a.Count += int64(n)
	if x := decodeOne(dmin, df, de); x < a.Min {
		a.Min = x
	}
	if x := decodeOne(dmax, df, de); x > a.Max {
		a.Max = x
	}
}

// add folds one matching value into a fold's local accumulators.
func add(x, sum, mn, mx float64) (float64, float64, float64) {
	if x < mn {
		mn = x
	}
	if x > mx {
		mx = x
	}
	return sum + x, mn, mx
}
