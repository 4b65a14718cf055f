package main

import (
	"time"

	"github.com/goalp/alp"
	"github.com/goalp/alp/internal/alpenc"
	"github.com/goalp/alp/internal/engine"
	"github.com/goalp/alp/internal/format"
	"github.com/goalp/alp/internal/vector"
)

// rungQuery is one replayed range query against a stored column.
type rungQuery struct {
	col    *format.Column
	rel    *engine.Relation
	lo, hi float64
}

// rungSet is what the in-process rungs replay: range queries, raw
// payloads for the write-path rungs, and the stored columns.
type rungSet struct {
	queries  []rungQuery
	payloads [][]float64
	columns  []*format.Column
}

// rungTimer runs one rung over its items: all of them, or, once minimum
// items are done, as many as fit in the budget. Each item's work is one
// span of the rung.
type rungTimer struct {
	budget  time.Duration
	minimum int
	spans   *spanLog
	parent  int
}

// run calls fn for items 0..n-1 and returns how many ran and the time
// fn reported spending (fn times its own measured part).
func (t rungTimer) run(name string, n int, fn func(i int) (time.Duration, time.Time)) (int, time.Duration) {
	began := time.Now()
	var total time.Duration
	done := 0
	for i := 0; i < n; i++ {
		if done >= t.minimum && time.Since(began) >= t.budget {
			break
		}
		d, at := fn(i)
		total += d
		done++
		if t.spans != nil {
			t.spans.add(t.parent, name, span(at, at.Add(d)), "")
		}
	}
	return done, total
}

// cycle repeats xs until it has at least n items.
func cycle[T any](xs []T, n int) []T {
	out := append([]T(nil), xs...)
	for len(xs) > 0 && len(out) < n {
		out = append(out, xs[len(out)%len(xs)])
	}
	return out
}

func mvs(values int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(values) / d.Seconds() / 1e6
}

func msPer(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(time.Millisecond) / float64(n)
}

func share(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// touchedVectors lists the vectors of col the zone maps cannot rule
// out for [lo, hi], and how many they rule out.
func touchedVectors(col *format.Column, lo, hi float64) (touched []int, skipped int) {
	for i := 0; i < col.NumVectors(); i++ {
		if col.Zones != nil && !col.Zones.MayContain(i, lo, hi) {
			skipped++
			continue
		}
		touched = append(touched, i)
	}
	return touched, skipped
}

// alpVector returns vector i when its row-group uses the decimal scheme.
func alpVector(col *format.Column, i int) *alpenc.Vector {
	rg := &col.RowGroups[i/vector.RowGroupVectors]
	if rg.Scheme != format.SchemeALP {
		return nil
	}
	return &rg.Vectors[i%vector.RowGroupVectors]
}

// filterGather runs Column.FilterGatherVector over the vectors of x the
// zone maps cannot rule out and returns the values they hold.
func filterGather(x rungQuery, sel []uint64, buf []float64, scratch []int64) int64 {
	var vals int64
	for i := 0; i < x.col.NumVectors(); i++ {
		if x.col.Zones != nil && !x.col.Zones.MayContain(i, x.lo, x.hi) {
			continue
		}
		x.col.FilterGatherVector(i, x.lo, x.hi, sel, buf, scratch)
		vals += int64(x.col.VectorLen(i))
	}
	return vals
}

// runRungs times each layer's public entry point on the replayed
// queries and payloads, one at a time, and returns the per-layer
// metrics they give.
func runRungs(rs *rungSet, budget time.Duration, spans *spanLog) map[string]float64 {
	out := map[string]float64{}
	sel := make([]uint64, format.SelWords)
	scratch := make([]int64, vector.Size)
	buf := make([]float64, vector.Size)
	q := rs.queries
	tm := rungTimer{budget: budget, minimum: min(20, len(q)), spans: spans}
	if spans != nil {
		began := time.Now()
		tm.parent = spans.add(0, "rungs", interval{}, "")
		defer func() {
			root := &spans.spans[tm.parent-1]
			root.Start, root.End = began.UnixNano(), time.Now().UnixNano()
		}()
	}

	// format: zone maps, measured without timing.
	var skipped, vectors int64
	touched := make([][]int, len(q))
	for k, x := range q {
		var s int
		touched[k], s = touchedVectors(x.col, x.lo, x.hi)
		skipped += int64(s)
		vectors += int64(x.col.NumVectors())
	}
	out["format.zone_skip_ratio"] = share(skipped, vectors)

	// fastlanes: FFOR unpack of the touched decimal vectors.
	var vals int64
	_, d := tm.run("fastlanes.unpack", len(q), func(k int) (time.Duration, time.Time) {
		t0 := time.Now()
		for _, i := range touched[k] {
			if v := alpVector(q[k].col, i); v != nil {
				v.Ints.UnpackRaw(scratch[:v.N])
				vals += int64(v.N)
			}
		}
		return time.Since(t0), t0
	})
	out["fastlanes.unpack_mvs"] = mvs(vals, d)

	// alpenc: the encoded-domain filter, the gather of its selection,
	// and the full vector decode.
	vals = 0
	_, d = tm.run("alpenc.filter", len(q), func(k int) (time.Duration, time.Time) {
		t0 := time.Now()
		for _, i := range touched[k] {
			if v := alpVector(q[k].col, i); v != nil {
				v.Filter(q[k].lo, q[k].hi, sel, scratch)
				vals += int64(v.N)
			}
		}
		return time.Since(t0), t0
	})
	out["alpenc.filter_mvs"] = mvs(vals, d)

	var rows int64
	_, d = tm.run("alpenc.gather", len(q), func(k int) (time.Duration, time.Time) {
		var spent time.Duration
		t0 := time.Now()
		for _, i := range touched[k] {
			if v := alpVector(q[k].col, i); v != nil && v.Filter(q[k].lo, q[k].hi, sel, scratch) > 0 {
				g := time.Now()
				rows += int64(v.GatherSelected(sel, scratch, buf))
				spent += time.Since(g)
			}
		}
		return spent, t0
	})
	out["alpenc.gather_ns_per_row"] = 0
	if rows > 0 {
		out["alpenc.gather_ns_per_row"] = float64(d) / float64(rows)
	}

	vals = 0
	_, d = tm.run("alpenc.decode", len(q), func(k int) (time.Duration, time.Time) {
		t0 := time.Now()
		for _, i := range touched[k] {
			if v := alpVector(q[k].col, i); v != nil {
				v.Decode(buf[:v.N], scratch)
				vals += int64(v.N)
			}
		}
		return time.Since(t0), t0
	})
	out["alpenc.decode_mvs"] = mvs(vals, d)

	// format: the fused filter+gather per vector, zone checks included,
	// which is the engine's inner loop minus the fold.
	vals = 0
	_, d = tm.run("format.filter_gather", len(q), func(k int) (time.Duration, time.Time) {
		t0 := time.Now()
		vals += filterGather(q[k], sel, buf, scratch)
		return time.Since(t0), t0
	})
	out["format.filter_gather_mvs"] = mvs(vals, d)

	// format: ALPS scan frames.
	vals, rows = 0, 0
	var wire, dense, repacked, raw int64
	_, d = tm.run("format.scan_frame", len(q), func(k int) (time.Duration, time.Time) {
		x := q[k]
		sw := format.NewScanWriter(x.col)
		wire += format.ScanStreamHeaderSize
		t0 := time.Now()
		for _, i := range touched[k] {
			frame, n, kind, _ := sw.Frame(i, x.lo, x.hi)
			vals += int64(x.col.VectorLen(i))
			if frame == nil {
				continue
			}
			rows += int64(n)
			wire += int64(len(frame))
			switch kind {
			case format.ScanFrameDense:
				dense++
			case format.ScanFrameRepacked:
				repacked++
			default:
				raw++
			}
		}
		return time.Since(t0), t0
	})
	out["format.scan_frame_mvs"] = mvs(vals, d)
	out["format.wire_bytes_per_row"] = 0
	if rows > 0 {
		out["format.wire_bytes_per_row"] = float64(wire) / float64(rows)
	}
	frames := dense + repacked + raw
	out["format.frame_share.dense"] = share(dense, frames)
	out["format.frame_share.repacked"] = share(repacked, frames)
	out["format.frame_share.raw"] = share(raw, frames)

	// engine: the filtered aggregate on the relation view. Its fold is
	// what it costs beyond the format rung's filter+gather of the same
	// query, timed just before it.
	vals = 0
	var fold time.Duration
	ne, de := tm.run("engine.filter_agg", len(q), func(k int) (time.Duration, time.Time) {
		f0 := time.Now()
		filterGather(q[k], sel, buf, scratch)
		t0 := time.Now()
		q[k].rel.FilterAgg(1, engine.Between(q[k].lo, q[k].hi))
		d := time.Since(t0)
		fold += d - t0.Sub(f0)
		vals += int64(q[k].rel.N)
		return d, t0
	})
	out["engine.filter_agg_mvs"] = mvs(vals, de)
	out["engine.fold_self_ms_per_op"] = msPer(fold, ne)

	np, dp := tm.run("engine.partials", len(q), func(k int) (time.Duration, time.Time) {
		p := engine.Between(q[k].lo, q[k].hi)
		t0 := time.Now()
		parts, _ := q[k].rel.FilterAggPartials(1, p, nil)
		engine.MergeAggs(parts)
		q[k].rel.FilterCount(1, p)
		return time.Since(t0), t0
	})
	out["engine.partials_ms_per_op"] = msPer(dp, np)

	// The write path, on raw payloads: row-group sampling and encode,
	// column marshal, and the parallel Writer. A workload stores few
	// columns, so the list is cycled to give every rung a few items.
	pl := cycle(rs.payloads, 3)
	cols := cycle(rs.columns, 3)
	wt := tm
	wt.minimum = 3
	var groups int
	_, d = wt.run("alpenc.sample_rowgroup", len(pl), func(k int) (time.Duration, time.Time) {
		t0 := time.Now()
		for lo := 0; lo < len(pl[k]); lo += vector.RowGroupSize {
			alpenc.SampleRowGroup(pl[k][lo:min(lo+vector.RowGroupSize, len(pl[k]))])
			groups++
		}
		return time.Since(t0), t0
	})
	out["alpenc.sample_ms_per_rowgroup"] = msPer(d, groups)

	vals = 0
	_, d = wt.run("format.encode_rowgroup", len(pl), func(k int) (time.Duration, time.Time) {
		t0 := time.Now()
		for lo := 0; lo < len(pl[k]); lo += vector.RowGroupSize {
			hi := min(lo+vector.RowGroupSize, len(pl[k]))
			format.EncodeRowGroup(pl[k][lo:hi], lo)
		}
		vals += int64(len(pl[k]))
		return time.Since(t0), t0
	})
	out["format.encode_rowgroup_mvs"] = mvs(vals, d)

	nm, dm := wt.run("format.marshal", len(cols), func(k int) (time.Duration, time.Time) {
		t0 := time.Now()
		cols[k].Marshal()
		return time.Since(t0), t0
	})
	out["format.marshal_ms_per_op"] = msPer(dm, nm)

	vals = 0
	_, d = wt.run("alp.writer", len(pl), func(k int) (time.Duration, time.Time) {
		t0 := time.Now()
		w := alp.NewWriterParallel(alp.WriterOptions{})
		w.Write(pl[k])
		w.Close()
		vals += int64(len(pl[k]))
		return time.Since(t0), t0
	})
	out["alp.writer_mvs"] = mvs(vals, d)

	var rd, all int64
	for _, c := range rs.columns {
		for g := range c.RowGroups {
			if c.RowGroups[g].Scheme == format.SchemeRD {
				rd++
			}
			all++
		}
	}
	out["alprd.rowgroup_share"] = share(rd, all)
	return out
}
