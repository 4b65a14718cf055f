// Per-partition partial aggregates: the placement-invariant contract
// distributed aggregation merges under. FilterAgg's float Sum is a
// single running fold when threads == 1 and worker-order-dependent
// otherwise, so neither shape survives being split across backends.
// Partials pin a third shape that does: every partition (row-group)
// folds its qualifying rows into a fresh accumulator in position
// order, and the partials merge in global row-group order. Both halves
// are deterministic — a partition's aggregate never sees another
// partition's rows, and float (non-)associativity is confined to the
// one fixed merge sequence — so the merged result is bit-identical no
// matter how many shards, threads or backends computed the partials.
// DESIGN.md ("Scatter-gather merge order") documents the contract.

package engine

import (
	"sync"
	"sync/atomic"

	"github.com/goalp/alp/internal/alpenc"
	"github.com/goalp/alp/internal/obs"
)

// FilterAggPartials runs SELECT SUM, COUNT, MIN, MAX WHERE p over the
// partitions named by idxs (nil means every partition), returning one
// aggregate per requested partition, in idxs order, plus the total
// number of vectors examined. Each partition folds from a fresh
// accumulator in position order, so the result is deterministic at any
// parallelism — unlike FilterAgg, where the float Sum depends on how
// morsels land on workers once threads > 1.
func (r *Relation) FilterAggPartials(threads int, p Predicate, idxs []int) ([]Agg, int) {
	if idxs == nil {
		idxs = make([]int, len(r.Parts))
		for i := range idxs {
			idxs[i] = i
		}
	}
	if threads < 1 {
		threads = 1
	}
	if threads > len(idxs) {
		threads = len(idxs)
	}
	if threads < 1 {
		threads = 1
	}
	o := obs.Active()
	o.ScanWorkers(threads)
	out := make([]Agg, len(idxs))
	touched := make([]int, threads)
	var next atomic.Int64
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			bufs := newFilterBufs()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(idxs) {
					return
				}
				o.MorselClaim()
				out[k] = alpenc.EmptyAgg()
				part := r.Parts[idxs[k]]
				if ps, ok := part.(PushdownScanner); ok {
					touched[t] += ps.FilterAgg(p, bufs, &out[k])
				} else {
					touched[t] += filterAggFallback(part, p, bufs, &out[k])
				}
			}
		}(t)
	}
	wg.Wait()
	n := 0
	for _, c := range touched {
		n += c
	}
	return out, n
}

// FilterCountPartials is FilterAggPartials for COUNT(*): one count per
// requested partition, in idxs order (nil means every partition).
// COUNT is exactly associative, so this exists for symmetry and for
// the no-materialization pushdown path, not for determinism.
func (r *Relation) FilterCountPartials(threads int, p Predicate, idxs []int) []int64 {
	if idxs == nil {
		idxs = make([]int, len(r.Parts))
		for i := range idxs {
			idxs[i] = i
		}
	}
	if threads < 1 {
		threads = 1
	}
	if threads > len(idxs) {
		threads = len(idxs)
	}
	if threads < 1 {
		threads = 1
	}
	o := obs.Active()
	o.ScanWorkers(threads)
	out := make([]int64, len(idxs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bufs := newFilterBufs()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(idxs) {
					return
				}
				o.MorselClaim()
				part := r.Parts[idxs[k]]
				if ps, ok := part.(PushdownScanner); ok {
					c, _ := ps.FilterCount(p, bufs)
					out[k] = c
					continue
				}
				a := alpenc.EmptyAgg()
				filterAggFallback(part, p, bufs, &a)
				out[k] = a.Count
			}
		}()
	}
	wg.Wait()
	return out
}

// MergeAggs folds per-partition aggregates in slice order — the one
// merge sequence of the distributed-aggregation contract. Callers must
// present partials in global row-group order; any reordering changes
// the float Sum by rounding.
func MergeAggs(parts []Agg) Agg {
	total := alpenc.EmptyAgg()
	for _, a := range parts {
		total.Merge(a)
	}
	return total
}
