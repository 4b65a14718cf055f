package alpenc

import "math"

// Agg is the running state of a filtered aggregate: SUM, COUNT, MIN and
// MAX over the rows that matched so far. Min and Max are +Inf/-Inf
// while Count is zero.
//
// Both folds below copy the accumulators into locals, fold, and store
// them back once: a loop that accumulated through the *Agg would store
// and reload Sum per row, because the compiler cannot prove the pointer
// does not alias the values being folded. Each fold visits rows in
// order and compares with < and >, so the result is bit-identical to
// one sequential fold of the qualifying values.
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
