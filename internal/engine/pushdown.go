// Predicate-pushdown operators: filtered scans and aggregates that
// accept a range predicate and evaluate it as deep in the storage
// layer as each partition allows. ALP partitions combine zone-map
// vector skipping with the encoded-domain fused unpack+compare kernel
// (internal/alpenc, internal/fastlanes); every other partition decodes
// vector-at-a-time and filters in the float domain, so all Relations
// answer the same queries with identical results.

package engine

import (
	"math"

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
	// FilterAgg folds the rows matching p from a fresh accumulator, in
	// position order, returning the partition's aggregate and the
	// number of vectors whose payload was examined.
	FilterAgg(p Predicate, bufs *filterBufs) (Agg, int)
	// FilterCount returns the number of rows matching p and the number
	// of vectors examined, without materializing any qualifying row.
	FilterCount(p Predicate, bufs *filterBufs) (int64, int)
}

// filterAggFallback answers FilterAgg for partitions with no pushdown
// support: scan vector-at-a-time, filter in the float domain, fold.
func filterAggFallback(part Partition, p Predicate, bufs *filterBufs) (Agg, int) {
	a := alpenc.EmptyAgg()
	touched := 0
	var batch obs.ScanBatch
	part.Scan(bufs.out, func(vals []float64) {
		touched++
		batch.Vector(a.FoldMatching(vals, p.Lo, p.Hi), false)
	})
	obs.Active().FlushScanBatch(&batch)
	return a, touched
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
// cannot qualify, and the rest fold their qualifying rows through the
// format layer's per-scheme fold (format.Column.AggVectors).
func (r vecRange) FilterAgg(pred Predicate, bufs *filterBufs) (Agg, int) {
	return r.col.AggVectors(r.first, r.end, pred.Lo, pred.Hi, bufs.out, bufs.scratch)
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
	o.Add(obs.VectorsSkipped, int64(skipped))
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
	o.Add(obs.VectorsSkipped, int64(skipped))
	o.FlushScanBatch(&batch)
	return count, touched
}
