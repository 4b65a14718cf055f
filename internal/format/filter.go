// Encoded-domain predicate pushdown over the columnar layout.
//
// A range predicate [lo, hi] over the column is answered per vector:
// decimal-scheme (ALP) vectors translate the bounds into their own
// (e, f) encoded-integer domain — exact, because ALP's decode map is
// monotone in the encoded integer for a fixed combination — and run
// the fused FFOR unpack+compare kernel, patching exception slots with
// the float-domain predicate. ALP_rd vectors have no order-preserving
// integer domain (the front bits are a dictionary code), so they are
// decoded and compared in the float domain, each 64-row selection word
// built without data-dependent branches; the rows are then compacted
// by walking the set bits. Both paths produce the same
// selection bitmap a plain decode-and-compare scan would. Filtered
// aggregates fold the qualifying rows in registers (AggVectors).
package format

import (
	"math/bits"
	"time"

	"github.com/goalp/alp/internal/alpenc"
	"github.com/goalp/alp/internal/alprd"
	"github.com/goalp/alp/internal/fastlanes"
	"github.com/goalp/alp/internal/obs"
	"github.com/goalp/alp/internal/vector"
)

// SelWords is the selection-bitmap length (in uint64 words) needed for
// one full vector.
const SelWords = vector.Size / 64

// fullMatch reports whether every row of vector i qualifies for
// [lo, hi] on metadata alone: the zone range is inside the predicate
// and the vector is a decimal-scheme vector with no exceptions (an
// exception-free ALP vector cannot hold NaN, so the zone bounds cover
// every row). Such vectors need no unpack and no compare.
func (c *Column) fullMatch(i int, lo, hi float64) bool {
	if c.Zones == nil || !c.Zones.Contains(i, lo, hi) {
		return false
	}
	g := i / vector.RowGroupVectors
	local := i % vector.RowGroupVectors
	rg := &c.RowGroups[g]
	return rg.Scheme == SchemeALP && len(rg.Vectors[local].ExcPos) == 0
}

// vectorLen returns the row count of vector i.
func (c *Column) vectorLen(i int) int {
	g := i / vector.RowGroupVectors
	local := i % vector.RowGroupVectors
	rg := &c.RowGroups[g]
	if rg.Scheme == SchemeALP {
		return rg.Vectors[local].N
	}
	return rg.RDVectors[local].N
}

// setAllSel sets the first n bits of sel.
func setAllSel(sel []uint64, n int) {
	nw := fastlanes.SelWords(n)
	for i := 0; i < nw; i++ {
		sel[i] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		sel[nw-1] = (1 << uint(r)) - 1
	}
}

// FilterVector evaluates the closed range [lo, hi] over vector i,
// writing a selection bitmap into sel (fastlanes.SelWords(n) words for
// the vector's n values) and returning the match count plus whether
// the encoded-domain pushdown kernel answered it (false = the vector
// was decoded to floats). buf and scratch must each hold vector.Size
// elements; no other allocation happens. NaN values never match.
//
// The pushdown counters are the caller's job: scan loops fold the
// (count, pushdown) results into an obs.ScanBatch and flush it per
// partition, so the per-vector path records nothing.
func (c *Column) FilterVector(i int, lo, hi float64, sel []uint64, buf []float64, scratch []int64) (count int, pushdown bool) {
	if c.fullMatch(i, lo, hi) {
		// Metadata-only answer: every row qualifies, the payload is
		// never touched.
		n := c.vectorLen(i)
		setAllSel(sel, n)
		return n, true
	}
	g := i / vector.RowGroupVectors
	local := i % vector.RowGroupVectors
	rg := &c.RowGroups[g]
	if rg.Scheme == SchemeALP {
		v := &rg.Vectors[local]
		return v.Filter(lo, hi, sel, scratch), true
	}
	v := &rg.RDVectors[local]
	alprd.DecodeVector(rg.RD, v, buf[:v.N])
	return filterFloats(buf[:v.N], lo, hi, sel), false
}

// FilterGatherVector is FilterVector fused with the gather: qualifying
// rows are written densely into out (room for the vector's n values),
// in position order, bit-exact with a decode-then-filter scan. Only
// qualifying rows are ever materialized as floats on the pushdown
// path. Like FilterVector, it records no pushdown counters itself —
// scan loops batch them via obs.ScanBatch.
func (c *Column) FilterGatherVector(i int, lo, hi float64, sel []uint64, out []float64, scratch []int64) (count int, pushdown bool) {
	if c.fullMatch(i, lo, hi) {
		// Every row qualifies: bulk-decode instead of per-bit gather,
		// which matters when the predicate is barely selective.
		n := c.DecodeVector(i, out, scratch)
		setAllSel(sel, n)
		return n, true
	}
	g := i / vector.RowGroupVectors
	local := i % vector.RowGroupVectors
	rg := &c.RowGroups[g]
	if rg.Scheme == SchemeALP {
		v := &rg.Vectors[local]
		count = v.Filter(lo, hi, sel, scratch)
		if count > 0 {
			// The gather — materializing qualifying rows as floats — is
			// the stage the paper's pushdown saves when selectivity is
			// low; its (sampled) histogram shows how that saving lands
			// per vector.
			if o := obs.Active(); o.SampleStage(obs.HistStageGather) {
				start := time.Now()
				v.GatherSelected(sel, scratch, out)
				o.Observe(obs.HistStageGather, time.Since(start).Nanoseconds())
			} else {
				v.GatherSelected(sel, scratch, out)
			}
		}
		return count, true
	}
	// ALP_rd: decode into out, then compact qualifying rows forward in
	// place.
	v := &rg.RDVectors[local]
	alprd.DecodeVector(rg.RD, v, out[:v.N])
	count = filterFloats(out[:v.N], lo, hi, sel)
	gatherSelected(out, out[:v.N], sel)
	return count, false
}

// filterFloats evaluates the predicate over decoded floats, filling
// sel and returning the match count (the fallback comparand of the
// pushdown kernel). Each 64-row selection word is built from
// branch-free compares, as the fused FFOR filter kernel builds its
// own, so random real doubles cost no mispredicted branches.
func filterFloats(vals []float64, lo, hi float64, sel []uint64) int {
	count := 0
	for i := 0; i < len(vals); i += 64 {
		var word uint64
		for j, x := range vals[i:min(i+64, len(vals))] {
			var ge, le uint64
			if x >= lo {
				ge = 1
			}
			if x <= hi {
				le = 1
			}
			word |= (ge & le) << (uint(j) & 63)
		}
		sel[i>>6] = word
		count += bits.OnesCount64(word)
	}
	return count
}

// gatherSelected writes the rows of src whose bit is set in sel to dst,
// in position order, and returns how many it wrote. It walks the set
// bits, so its branches follow the words, not the rows. dst may be src
// itself: the write index never passes the read index.
func gatherSelected(dst, src []float64, sel []uint64) int {
	n := 0
	for w, word := range sel[:fastlanes.SelWords(len(src))] {
		for word != 0 {
			dst[n] = src[w<<6|bits.TrailingZeros64(word)]
			word &= word - 1
			n++
		}
	}
	return n
}

// FilterAggResult carries the aggregates of a filtered scan. Min and
// Max are +Inf/-Inf when Count is zero.
type FilterAggResult struct {
	Sum   float64
	Count int
	Min   float64
	Max   float64
	// Touched is the number of vectors whose payload was examined
	// (pushdown-scanned or decoded); zone-map-skipped vectors are not
	// counted.
	Touched int
}

// AggVectors folds the rows in [lo, hi] of vectors [first, end) from a
// fresh accumulator, in position order, skipping the vectors the zone
// map rules out. It returns the aggregate and the number of vectors
// whose payload was examined, and records the skip and pushdown
// counters once for the whole range. buf and scratch must each hold
// vector.Size elements.
//
// A decimal-scheme vector with no exceptions that the zone map shows
// to match entirely folds every row straight from its integers
// (alpenc.Agg.FoldVector, counted as a decoded vector, as the bulk
// decode it replaces was). Any other decimal-scheme vector runs the
// encoded-domain filter, then folds the selected rows: straight from
// the integers when it has no exceptions (alpenc.Agg.FoldSelected),
// else gathered into buf and folded in registers (alpenc.Agg.Fold).
// ALP_rd vectors decode, then compare and fold in one loop, with no
// bitmap and no compaction (alpenc.Agg.FoldMatching).
func (c *Column) AggVectors(first, end int, lo, hi float64, buf []float64, scratch []int64) (a alpenc.Agg, touched int) {
	o := obs.Active()
	a = alpenc.EmptyAgg()
	skipped := 0
	var batch obs.ScanBatch
	var sel [SelWords]uint64
	for i := first; i < end; i++ {
		if c.Zones != nil && !c.Zones.MayContain(i, lo, hi) {
			skipped++
			continue
		}
		touched++
		rg := &c.RowGroups[i/vector.RowGroupVectors]
		local := i % vector.RowGroupVectors
		if rg.Scheme == SchemeRD {
			v := &rg.RDVectors[local]
			alprd.DecodeVector(rg.RD, v, buf[:v.N])
			batch.Vector(a.FoldMatching(buf[:v.N], lo, hi), false)
			continue
		}
		v := &rg.Vectors[local]
		if len(v.ExcPos) == 0 && c.Zones != nil && c.Zones.Contains(i, lo, hi) {
			foldWhole(o, &a, v, scratch)
			batch.Vector(v.N, true)
			continue
		}
		n := v.Filter(lo, hi, sel[:], scratch)
		if n > 0 {
			// The selected rows' gather and fold, sampled into the
			// gather stage histogram.
			sampled := o.SampleStage(obs.HistStageGather)
			var start time.Time
			if sampled {
				start = time.Now()
			}
			if len(v.ExcPos) == 0 {
				a.FoldSelected(v, sel[:], scratch)
			} else {
				a.Fold(buf[:v.GatherSelected(sel[:], scratch, buf)])
			}
			if sampled {
				o.Observe(obs.HistStageGather, time.Since(start).Nanoseconds())
			}
		}
		batch.Vector(n, true)
	}
	o.Add(obs.VectorsSkipped, int64(skipped))
	o.FlushScanBatch(&batch)
	return a, touched
}

// foldWhole folds every row of v, a decimal-scheme vector with no
// exceptions, into a (alpenc.Agg.FoldVector) and records it as one
// decoded vector, the way DecodeVector does.
func foldWhole(o *obs.Collector, a *alpenc.Agg, v *alpenc.Vector, scratch []int64) {
	if o == nil {
		a.FoldVector(v, scratch)
		return
	}
	began := time.Now()
	a.FoldVector(v, scratch)
	o.VectorDecoded(v.N, time.Since(began).Nanoseconds())
}

// AggRange computes SUM/COUNT/MIN/MAX over the values in [lo, hi],
// combining zone-map vector skipping with encoded-domain predicate
// pushdown. Each row-group folds from a fresh accumulator in position
// order (AggVectors) and the partials merge in row-group order: the
// fold order of every aggregate in the repo, so the result is
// bit-identical to the engine's FilterAgg over the same column.
func (c *Column) AggRange(lo, hi float64) FilterAggResult {
	obs.Active().Add(obs.RangeScans, 1)
	buf, scratch := make([]float64, vector.Size), make([]int64, vector.Size)
	total := alpenc.EmptyAgg()
	touched := 0
	for g := range c.RowGroups {
		first := g * vector.RowGroupVectors
		a, n := c.AggVectors(first, first+vector.VectorsIn(c.RowGroups[g].N), lo, hi, buf, scratch)
		total.Merge(a)
		touched += n
	}
	return FilterAggResult{Sum: total.Sum, Count: int(total.Count), Min: total.Min, Max: total.Max, Touched: touched}
}
