// Predicate-pushdown operators: filtered scans and aggregates that
// accept a range predicate and evaluate it as deep in the storage
// layer as each partition allows. ALP partitions combine zone-map
// vector skipping with the encoded-domain fused unpack+compare kernel
// (internal/alpenc, internal/fastlanes); every other partition decodes
// vector-at-a-time and filters in the float domain, so all Relations
// answer the same queries with identical results.

package engine

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/goalp/alp/internal/alpenc"
	"github.com/goalp/alp/internal/format"
	"github.com/goalp/alp/internal/obs"
	"github.com/goalp/alp/internal/vector"
)

// Predicate is a range predicate over a float64 column, held as a
// closed interval: a value v matches when Lo <= v <= Hi. All
// comparison forms reduce to this shape exactly, because floats are
// discrete (v > x ⟺ v >= nextafter(x, +Inf)). NaN never matches; an
// interval with Lo > Hi matches nothing.
type Predicate struct {
	Lo, Hi float64
}

// Between matches lo <= v <= hi.
func Between(lo, hi float64) Predicate { return Predicate{Lo: lo, Hi: hi} }

// GE matches v >= x.
func GE(x float64) Predicate { return Predicate{Lo: x, Hi: math.Inf(1)} }

// LE matches v <= x.
func LE(x float64) Predicate { return Predicate{Lo: math.Inf(-1), Hi: x} }

// EQ matches v == x (both zeros match EQ(0), per IEEE comparison).
func EQ(x float64) Predicate { return Predicate{Lo: x, Hi: x} }

// none is the empty predicate (Lo > Hi, matches nothing).
func none() Predicate { return Predicate{Lo: math.Inf(1), Hi: math.Inf(-1)} }

// GT matches v > x.
func GT(x float64) Predicate {
	if math.IsNaN(x) || math.IsInf(x, 1) {
		return none() // nothing is greater than +Inf
	}
	return Predicate{Lo: math.Nextafter(x, math.Inf(1)), Hi: math.Inf(1)}
}

// LT matches v < x.
func LT(x float64) Predicate {
	if math.IsNaN(x) || math.IsInf(x, -1) {
		return none() // nothing is less than -Inf
	}
	return Predicate{Lo: math.Inf(-1), Hi: math.Nextafter(x, math.Inf(-1))}
}

// Match evaluates the predicate on one value (false for NaN).
func (p Predicate) Match(v float64) bool { return v >= p.Lo && v <= p.Hi }

// Agg carries the aggregates of a filtered scan: SELECT SUM(col),
// COUNT(*), MIN(col), MAX(col) WHERE p. Min and Max are +Inf/-Inf when
// Count is zero. It is the codec's own accumulator, so the format
// layer folds into it directly.
type Agg = alpenc.Agg

// filterBufs is the per-worker scratch space of a filtered scan: one
// selection bitmap, one float vector (gather target / decode buffer)
// and one int64 vector (unpack buffer). Reused across every vector a
// worker touches, so the steady-state scan allocates nothing.
type filterBufs struct {
	sel     [vector.Size / 64]uint64
	out     []float64
	scratch []int64
}

func newFilterBufs() *filterBufs {
	return &filterBufs{
		out:     make([]float64, vector.Size),
		scratch: make([]int64, vector.Size),
	}
}

// PushdownScanner is implemented by partitions that can evaluate a
// range predicate below the float domain — by skipping vectors via
// zone maps and/or filtering in the encoded-integer domain. Partitions
// without it are scanned and filtered in the float domain.
type PushdownScanner interface {
	// FilterAgg folds the rows matching p into a, in position order,
	// returning the number of vectors whose payload was examined.
	// Folding into the caller's accumulator (rather than returning a
	// partition-local aggregate) keeps a single-threaded filtered scan
	// bit-identical to one running fold over the whole column.
	FilterAgg(p Predicate, bufs *filterBufs, a *Agg) int
	// FilterCount returns the number of rows matching p and the number
	// of vectors examined, without materializing any qualifying row.
	FilterCount(p Predicate, bufs *filterBufs) (int64, int)
}

// filterAggFallback answers FilterAgg for partitions with no pushdown
// support: scan vector-at-a-time, filter in the float domain, fold.
func filterAggFallback(part Partition, p Predicate, bufs *filterBufs, a *Agg) int {
	o := obs.Active()
	touched := 0
	var batch obs.ScanBatch
	part.Scan(bufs.out, func(vals []float64) {
		touched++
		batch.Vector(a.FoldMatching(vals, p.Lo, p.Hi), false)
	})
	o.FlushScanBatch(&batch)
	return touched
}

// FilterAgg runs SELECT SUM, COUNT, MIN, MAX WHERE p with the given
// parallelism, pushing the predicate into each partition as deep as it
// supports. Touched counts vectors whose payload was examined across
// all partitions (zone-map-skipped vectors are not touched).
//
// With threads == 1 the result is bit-identical to a serial
// decode-then-filter aggregate; with more threads the float Sum may
// differ by rounding because partition results merge in worker order.
func (r *Relation) FilterAgg(threads int, p Predicate) (Agg, int) {
	return r.filterAgg(threads, p, false)
}

// FilterAggNaive is FilterAgg with pushdown disabled: every partition
// decodes everything and filters in the float domain. It exists as the
// decode-then-filter comparand for benchmarks and differential tests.
func (r *Relation) FilterAggNaive(threads int, p Predicate) (Agg, int) {
	return r.filterAgg(threads, p, true)
}

// FilterAggCtx is FilterAgg with request-scoped tracing: when ctx
// carries an obs.Trace (a traced server request), the whole morsel
// fan-out is attributed to the trace's engine span. The query itself
// is unaffected — untraced contexts behave exactly like FilterAgg.
func (r *Relation) FilterAggCtx(ctx context.Context, threads int, p Predicate) (Agg, int) {
	tr := obs.TraceFrom(ctx)
	if tr == nil {
		return r.filterAgg(threads, p, false)
	}
	start := time.Now()
	a, n := r.filterAgg(threads, p, false)
	tr.AddSince(obs.SpanEngine, start)
	return a, n
}

// FilterCountCtx is FilterCount with request-scoped tracing, mirroring
// FilterAggCtx.
func (r *Relation) FilterCountCtx(ctx context.Context, threads int, p Predicate) int64 {
	tr := obs.TraceFrom(ctx)
	if tr == nil {
		return r.FilterCount(threads, p)
	}
	start := time.Now()
	c := r.FilterCount(threads, p)
	tr.AddSince(obs.SpanEngine, start)
	return c
}

func (r *Relation) filterAgg(threads int, p Predicate, forceNaive bool) (Agg, int) {
	if threads < 1 {
		threads = 1
	}
	o := obs.Active()
	o.ScanWorkers(threads)
	var next atomic.Int64
	results := make([]Agg, threads)
	touched := make([]int, threads)
	for t := range results {
		results[t] = alpenc.EmptyAgg()
	}
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			bufs := newFilterBufs()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(r.Parts) {
					return
				}
				o.MorselClaim()
				if ps, ok := r.Parts[i].(PushdownScanner); ok && !forceNaive {
					touched[t] += ps.FilterAgg(p, bufs, &results[t])
				} else {
					touched[t] += filterAggFallback(r.Parts[i], p, bufs, &results[t])
				}
			}
		}(t)
	}
	wg.Wait()
	total := alpenc.EmptyAgg()
	n := 0
	for t := range results {
		total.Merge(results[t])
		n += touched[t]
	}
	return total, n
}

// FilterCount runs SELECT COUNT(*) WHERE p. On pushdown-capable
// partitions no qualifying row is ever materialized: the count comes
// straight from the selection bitmaps.
func (r *Relation) FilterCount(threads int, p Predicate) int64 {
	if threads < 1 {
		threads = 1
	}
	o := obs.Active()
	o.ScanWorkers(threads)
	var next atomic.Int64
	counts := make([]int64, threads)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			bufs := newFilterBufs()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(r.Parts) {
					return
				}
				o.MorselClaim()
				if ps, ok := r.Parts[i].(PushdownScanner); ok {
					c, _ := ps.FilterCount(p, bufs)
					counts[t] += c
					continue
				}
				a := alpenc.EmptyAgg()
				filterAggFallback(r.Parts[i], p, bufs, &a)
				counts[t] += a.Count
			}
		}(t)
	}
	wg.Wait()
	var total int64
	for _, c := range counts {
		total += c
	}
	return total
}

// rowGatherer is implemented by partitions that can materialize the
// rows matching a predicate directly from their compressed form (the
// bitmap-driven gather path ALP partitions share with the scan wire
// format).
type rowGatherer interface {
	FilterRows(p Predicate, bufs *filterBufs, out []float64) []float64
}

// FilterRows materializes every row matching p, in position order —
// the serial in-process comparand that the served scan endpoint (under
// either wire encoding) must match bit-for-bit. ALP partitions combine
// zone-map skipping with the fused unpack+filter+gather kernels; other
// partitions decode and filter in the float domain.
func (r *Relation) FilterRows(p Predicate) []float64 {
	bufs := newFilterBufs()
	var out []float64
	for _, part := range r.Parts {
		if rg, ok := part.(rowGatherer); ok {
			out = rg.FilterRows(p, bufs, out)
			continue
		}
		part.Scan(bufs.out, func(vals []float64) {
			for _, v := range vals {
				if p.Match(v) {
					out = append(out, v)
				}
			}
		})
	}
	return out
}

// ---- ALP partition pushdown ----

// vecRange is the vectors [first, end) of a compressed column: what
// both ALP partition kinds scan, filter and aggregate. A BuildALP
// partition covers the whole of its own column; a BuildALPFromColumn
// view covers one row-group of a shared one.
type vecRange struct {
	col        *format.Column
	first, end int
}

// Scan implements Partition.Scan over the range.
func (r vecRange) Scan(buf []float64, emit func([]float64)) {
	scratch := make([]int64, vector.Size)
	for i := r.first; i < r.end; i++ {
		n := r.col.DecodeVector(i, buf, scratch)
		emit(buf[:n])
	}
}

// FilterAgg implements PushdownScanner: zone maps skip vectors that
// cannot qualify, and the rest fold their qualifying rows into a
// through the format layer's per-scheme fold (format.Column.AggVectors).
func (r vecRange) FilterAgg(pred Predicate, bufs *filterBufs, a *Agg) int {
	return r.col.AggVectors(r.first, r.end, pred.Lo, pred.Hi, a, bufs.out, bufs.scratch)
}

// FilterRows implements rowGatherer: the selection bitmap from the
// encoded-domain kernel drives the gather, so non-qualifying rows are
// never materialized as floats.
func (r vecRange) FilterRows(pred Predicate, bufs *filterBufs, out []float64) []float64 {
	o := obs.Active()
	skipped := 0
	var batch obs.ScanBatch
	for i := r.first; i < r.end; i++ {
		if r.col.Zones != nil && !r.col.Zones.MayContain(i, pred.Lo, pred.Hi) {
			skipped++
			continue
		}
		n, pd := r.col.FilterGatherVector(i, pred.Lo, pred.Hi, bufs.sel[:], bufs.out, bufs.scratch)
		batch.Vector(n, pd)
		out = append(out, bufs.out[:n]...)
	}
	o.VectorsSkipped(skipped)
	o.FlushScanBatch(&batch)
	return out
}

// FilterCount implements PushdownScanner without gathering: on the
// decimal scheme the count is read off the selection bitmap, so a
// vector with no qualifying rows converts zero integers to floats.
func (r vecRange) FilterCount(pred Predicate, bufs *filterBufs) (int64, int) {
	o := obs.Active()
	var count int64
	touched := 0
	skipped := 0
	var batch obs.ScanBatch
	for i := r.first; i < r.end; i++ {
		if r.col.Zones != nil && !r.col.Zones.MayContain(i, pred.Lo, pred.Hi) {
			skipped++
			continue
		}
		n, pd := r.col.FilterVector(i, pred.Lo, pred.Hi, bufs.sel[:], bufs.out, bufs.scratch)
		batch.Vector(n, pd)
		touched++
		count += int64(n)
	}
	o.VectorsSkipped(skipped)
	o.FlushScanBatch(&batch)
	return count, touched
}
