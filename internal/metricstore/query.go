// Range queries over the metrics history.
//
// Query semantics are defined so that the compressed store and the
// uncompressed reference recorder (ref.go) produce bit-identical
// float64 results, which is what the differential tests assert:
//
//  1. The retained history is an ordered list of segments: each sealed
//     window, oldest first, then the hot tail.
//  2. Per step bucket and per segment, a PARTIAL aggregate is folded
//     in position (= time) order starting from zero.
//  3. A bucket's partials are merged in segment (= time) order:
//     sum += p.sum, count += p.count, min/max compare, last overwrite.
//
// Floating-point addition is not associative, so (2)+(3) is a specific
// summation order. For a fully-covered sealed window of at most one
// row-group it is exactly the engine's fold order: Column.AggRange folds
// each row-group from zero in position order, and a window that fits in
// one row-group is one partial, bitwise the plain fold the reference
// performs. Larger windows, and sealed windows only partially covered
// by a bucket, decode just the touched vectors (Column.ReadVectorInto)
// and fold the in-range span.
// Values are derived from int64 counters and are therefore never NaN,
// so the (-Inf, +Inf) pushdown predicate matches every sample.
package metricstore

import (
	"fmt"
	"math"
	"sort"
	"time"

	alp "github.com/goalp/alp"
)

// AggKind selects the per-bucket aggregate of a range query.
type AggKind int

const (
	AggSum   AggKind = iota // sum of samples in the bucket
	AggCount                // number of samples in the bucket
	AggMin
	AggMax
	AggAvg  // sum / count
	AggRate // sum / bucket width in seconds (per-second rate of a delta series)
	AggLast // newest sample in the bucket
)

var aggNames = map[string]AggKind{
	"sum": AggSum, "count": AggCount, "min": AggMin, "max": AggMax,
	"avg": AggAvg, "rate": AggRate, "last": AggLast,
}

// ParseAgg maps a query-string agg name to its kind.
func ParseAgg(s string) (AggKind, error) {
	if k, ok := aggNames[s]; ok {
		return k, nil
	}
	return 0, fmt.Errorf("metricstore: unknown agg %q (want sum|count|min|max|avg|rate|last)", s)
}

func (k AggKind) String() string {
	for n, kk := range aggNames {
		if kk == k {
			return n
		}
	}
	return "unknown"
}

// Point is one step bucket of a range query. TsUs is the bucket start
// (unix microseconds); Count is the number of samples aggregated.
// Buckets holding no samples are omitted from results.
type Point struct {
	TsUs  int64
	Value float64
	Count int64
}

// maxQueryBuckets bounds (until-since)/step so a careless query cannot
// ask for an unbounded result set.
const maxQueryBuckets = 1 << 20

// bucketAcc accumulates merged partials for one step bucket.
type bucketAcc struct {
	sum      float64
	count    int64
	min, max float64
	last     float64
}

// partial is one (segment, bucket) fold, computed from zero in
// position order.
type partial struct {
	sum      float64
	count    int64
	min, max float64
	last     float64
}

// merge folds p into the bucket accumulator in segment order.
func (a *bucketAcc) merge(p partial) {
	if p.count == 0 {
		return
	}
	if a.count == 0 {
		a.min, a.max = p.min, p.max
	} else {
		if p.min < a.min {
			a.min = p.min
		}
		if p.max > a.max {
			a.max = p.max
		}
	}
	a.sum += p.sum
	a.count += p.count
	a.last = p.last
}

// foldSpan folds samples [i0, i1) of one segment into accs: per step
// bucket, a partial is accumulated from zero and merged when the
// bucket changes. ts must be non-decreasing across the span.
func foldSpan(accs map[int64]*bucketAcc, ts, vals []float64, i0, i1 int, sinceUs, untilUs, stepUs int64) {
	curBucket := int64(-1)
	var p partial
	flush := func() {
		if p.count > 0 {
			a := accs[curBucket]
			if a == nil {
				a = &bucketAcc{}
				accs[curBucket] = a
			}
			a.merge(p)
		}
		p = partial{}
	}
	for i := i0; i < i1; i++ {
		t := int64(ts[i])
		if t < sinceUs || t >= untilUs {
			continue
		}
		b := (t - sinceUs) / stepUs
		if b != curBucket {
			flush()
			curBucket = b
		}
		v := vals[i]
		p.sum += v
		if p.count == 0 {
			p.min, p.max = v, v
		} else {
			if v < p.min {
				p.min = v
			}
			if v > p.max {
				p.max = v
			}
		}
		p.count++
		p.last = v
	}
	flush()
}

// finish renders the accumulated buckets as sorted points.
func finish(accs map[int64]*bucketAcc, sinceUs, stepUs int64, agg AggKind) []Point {
	keys := make([]int64, 0, len(accs))
	for k := range accs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	pts := make([]Point, 0, len(keys))
	for _, k := range keys {
		a := accs[k]
		pt := Point{TsUs: sinceUs + k*stepUs, Count: a.count}
		switch agg {
		case AggSum:
			pt.Value = a.sum
		case AggCount:
			pt.Value = float64(a.count)
		case AggMin:
			pt.Value = a.min
		case AggMax:
			pt.Value = a.max
		case AggAvg:
			pt.Value = a.sum / float64(a.count)
		case AggRate:
			pt.Value = a.sum / (float64(stepUs) / 1e6)
		case AggLast:
			pt.Value = a.last
		}
		pts = append(pts, pt)
	}
	return pts
}

// validateRange normalizes the query window. step <= 0 means "one
// bucket spanning the whole range".
func validateRange(sinceUs, untilUs int64, step time.Duration) (stepUs int64, err error) {
	if untilUs <= sinceUs {
		return 0, fmt.Errorf("metricstore: empty range [%d, %d)", sinceUs, untilUs)
	}
	stepUs = step.Microseconds()
	if stepUs <= 0 {
		stepUs = untilUs - sinceUs
	}
	if n := (untilUs - sinceUs + stepUs - 1) / stepUs; n > maxQueryBuckets {
		return 0, fmt.Errorf("metricstore: %d buckets exceeds limit %d (increase step)", n, maxQueryBuckets)
	}
	return stepUs, nil
}

// Query aggregates one series over [sinceUs, untilUs) in buckets of
// step, merging sealed windows (engine pushdown for fully-covered
// windows, partial vector decode otherwise) with the hot tail.
func (st *Store) Query(metric string, sinceUs, untilUs int64, step time.Duration, agg AggKind) ([]Point, error) {
	idx, ok := st.index[metric]
	if !ok {
		return nil, fmt.Errorf("metricstore: unknown metric %q", metric)
	}
	stepUs, err := validateRange(sinceUs, untilUs, step)
	if err != nil {
		return nil, err
	}
	wins, hotTs, hotVals := st.snapshotSegments(idx)

	accs := make(map[int64]*bucketAcc)
	for _, w := range wins {
		if int64(w.lastUs) < sinceUs || int64(w.firstUs) >= untilUs {
			continue
		}
		queryWindow(accs, w, idx, sinceUs, untilUs, stepUs, agg)
	}
	foldSpan(accs, hotTs, hotVals, 0, len(hotTs), sinceUs, untilUs, stepUs)
	return finish(accs, sinceUs, stepUs, agg), nil
}

// queryWindow folds one sealed window into accs.
//
// Fast path: when every sample of the window lands in the same step
// bucket, the whole window is inside the query range and the window
// fits in one row-group, the partial is exactly Column.AggRange over
// the full column — the fused unpack+compare pushdown kernel, no
// vector materialization. AggLast needs the final sample's value,
// which the pushdown result does not carry, so last-queries always
// take the decode path.
//
// Slow path: binary-search the decoded timestamp column for the
// in-range span, decode only the vectors that span touches, and fold
// per bucket.
func queryWindow(accs map[int64]*bucketAcc, w *window, idx int, sinceUs, untilUs, stepUs int64, agg AggKind) {
	firstB := (int64(w.firstUs) - sinceUs) / stepUs
	lastB := (int64(w.lastUs) - sinceUs) / stepUs
	if agg != AggLast && w.n <= alp.RowGroupSize &&
		int64(w.firstUs) >= sinceUs && int64(w.lastUs) < untilUs && firstB == lastB {
		r := w.cols[idx].AggRange(math.Inf(-1), math.Inf(1))
		a := accs[firstB]
		if a == nil {
			a = &bucketAcc{}
			accs[firstB] = a
		}
		a.merge(partial{sum: r.Sum, count: int64(r.Count), min: r.Min, max: r.Max})
		return
	}

	tsv := w.ts.Values()
	i0 := sort.Search(w.n, func(i int) bool { return int64(tsv[i]) >= sinceUs })
	i1 := sort.Search(w.n, func(i int) bool { return int64(tsv[i]) >= untilUs })
	if i0 >= i1 {
		return
	}
	// Decode only the touched vectors into a window-positioned buffer.
	v0, v1 := i0/alp.VectorSize, (i1-1)/alp.VectorSize
	vals := make([]float64, (v1+1-v0)*alp.VectorSize)
	scratch := make([]int64, alp.VectorSize)
	base := v0 * alp.VectorSize
	for vi := v0; vi <= v1; vi++ {
		if _, err := w.cols[idx].ReadVectorInto(vi, vals[(vi-v0)*alp.VectorSize:], scratch); err != nil {
			// Sealed windows are self-produced; a decode error here is a
			// programming bug, not a runtime condition. Skip the window
			// rather than corrupt the result.
			return
		}
	}
	foldSpan(accs, tsv[base:i1], vals[:i1-base], i0-base, i1-base, sinceUs, untilUs, stepUs)
}
