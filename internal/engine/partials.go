// The fold order. Every filtered aggregate in the engine is built from
// per-partition (row-group) partials: each partition folds its
// qualifying rows into a fresh accumulator in position order, and the
// partials merge in partition order (MergeAggs). Both halves are
// deterministic — a partition's aggregate never sees another
// partition's rows, and float (non-)associativity is confined to the
// one fixed merge sequence — so FilterAgg at any thread count, the
// served /agg, and a coordinator merging partials from several
// backends all produce the same Float64bits. DESIGN.md ("Fold order")
// documents the contract.

package engine

import "github.com/goalp/alp/internal/alpenc"

// FilterAgg runs SELECT SUM, COUNT, MIN, MAX WHERE p with the given
// parallelism, pushing the predicate into each partition as deep as it
// supports. Touched counts vectors whose payload was examined across
// all partitions (zone-map-skipped vectors are not touched). The result
// is MergeAggs of FilterAggPartials, so it is the same at any thread
// count.
func (r *Relation) FilterAgg(threads int, p Predicate) (Agg, int) {
	parts, touched := r.aggPartials(threads, p, nil, false)
	return MergeAggs(parts), touched
}

// FilterAggNaive is FilterAgg with pushdown disabled: every partition
// decodes everything and filters in the float domain. It exists as the
// decode-then-filter comparand for benchmarks and differential tests.
func (r *Relation) FilterAggNaive(threads int, p Predicate) (Agg, int) {
	parts, touched := r.aggPartials(threads, p, nil, true)
	return MergeAggs(parts), touched
}

// FilterAggPartials runs SELECT SUM, COUNT, MIN, MAX WHERE p over the
// partitions named by idxs (nil means every partition), returning one
// aggregate per requested partition, in idxs order, plus the total
// number of vectors examined.
func (r *Relation) FilterAggPartials(threads int, p Predicate, idxs []int) ([]Agg, int) {
	return r.aggPartials(threads, p, idxs, false)
}

func (r *Relation) aggPartials(threads int, p Predicate, idxs []int, naive bool) ([]Agg, int) {
	idxs = r.partIndexes(idxs)
	out := make([]Agg, len(idxs))
	touched := make([]int, len(idxs))
	morsels(threads, len(idxs), func(k int, bufs *filterBufs) {
		part := r.Parts[idxs[k]]
		if ps, ok := part.(PushdownScanner); ok && !naive {
			out[k], touched[k] = ps.FilterAgg(p, bufs)
		} else {
			out[k], touched[k] = filterAggFallback(part, p, bufs)
		}
	})
	n := 0
	for _, c := range touched {
		n += c
	}
	return out, n
}

// FilterCount runs SELECT COUNT(*) WHERE p: the sum of
// FilterCountPartials. On pushdown-capable partitions no qualifying
// row is ever materialized: the count comes straight from the
// selection bitmaps.
func (r *Relation) FilterCount(threads int, p Predicate) int64 {
	var total int64
	for _, c := range r.FilterCountPartials(threads, p, nil) {
		total += c
	}
	return total
}

// FilterCountPartials is FilterAggPartials for COUNT(*): one count per
// requested partition, in idxs order (nil means every partition).
func (r *Relation) FilterCountPartials(threads int, p Predicate, idxs []int) []int64 {
	idxs = r.partIndexes(idxs)
	out := make([]int64, len(idxs))
	morsels(threads, len(idxs), func(k int, bufs *filterBufs) {
		part := r.Parts[idxs[k]]
		if ps, ok := part.(PushdownScanner); ok {
			out[k], _ = ps.FilterCount(p, bufs)
			return
		}
		a, _ := filterAggFallback(part, p, bufs)
		out[k] = a.Count
	})
	return out
}

// partIndexes returns idxs, or every partition index when idxs is nil.
func (r *Relation) partIndexes(idxs []int) []int {
	if idxs != nil {
		return idxs
	}
	idxs = make([]int, len(r.Parts))
	for i := range idxs {
		idxs[i] = i
	}
	return idxs
}

// MergeAggs folds per-partition aggregates in slice order — the one
// merge sequence of the fold order. Callers must present partials in
// row-group order; any reordering changes the float Sum by rounding.
func MergeAggs(parts []Agg) Agg {
	total := alpenc.EmptyAgg()
	for _, a := range parts {
		total.Merge(a)
	}
	return total
}
