// Log-bucketed latency histograms: the deep-observability layer on top
// of the monotonic counters. Every recorded duration lands in the
// power-of-two bucket holding it, so one fixed-size array of atomics
// captures the full latency distribution of a server endpoint or an
// engine stage — nanoseconds to hours — with constant memory and a
// zero-allocation, lock-free record path that morsel workers and HTTP
// handlers can share.
//
// Like the counters, histograms follow the nil-safe collector pattern:
// Collector.Observe on a nil receiver is a no-op, so instrumented hot
// paths pay one predicted branch when collection is disabled.
package obs

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// HistBuckets is the number of log2 buckets per histogram. Bucket 0
// holds durations in [0ns, 2ns); bucket b holds [2^b, 2^(b+1)) ns; the
// last bucket absorbs everything from 2^(HistBuckets-1) ns (~2.4 h) up.
const HistBuckets = 44

// HistID names one tracked latency distribution. The first block is
// the server's endpoint latencies (end-to-end inside the admission
// wrapper); the second is the engine/codec stage costs, recorded at
// vector or row-group granularity where the work actually happens.
type HistID int

const (
	// Server endpoints (one request = one sample).
	HistIngest  HistID = iota // POST /v1/columns/{name}
	HistAgg                   // GET .../agg
	HistCount                 // GET .../count
	HistScan                  // GET .../scan
	HistData                  // GET .../data
	HistVectors               // GET .../vectors/{i}
	HistMeta                  // list / info / delete
	HistHistory               // GET /v1/metrics/history

	// Engine and codec stages (one kernel call = one sample).
	HistStageEncode     // row-group encode (sampling + vector encodes)
	HistStageUnpack     // FFOR unpack kernel (decode path)
	HistStageFilter     // fused FFOR unpack+compare kernel
	HistStageGather     // selected-row gather; in a filtered aggregate, gather and fold
	HistStageHTTPWrite  // response payload writes on the scan path
	HistStageRepack     // sparse-selection re-pack on the scan wire path
	HistStageScanDecode // client-side scan frame decode

	// Scatter-gather coordinator (internal/cluster).
	HistClusterScatter // clustered query end-to-end (plan + fan-out + merge)
	HistClusterBackend // one backend call within a scatter
	HistClusterFanout  // samples are scatter widths (backends per query), not ns

	NumHists
)

// histNames are the stable metric-name prefixes: endpoint histograms
// surface as lat_<endpoint>_{count,sum_ns,p50_ns,p95_ns,p99_ns,max_ns}
// and stage histograms as stage_<stage>_... in /metrics.
var histNames = [NumHists]string{
	HistIngest:          "lat_ingest",
	HistAgg:             "lat_agg",
	HistCount:           "lat_count",
	HistScan:            "lat_scan",
	HistData:            "lat_data",
	HistVectors:         "lat_vectors",
	HistMeta:            "lat_meta",
	HistHistory:         "lat_history",
	HistStageEncode:     "stage_encode",
	HistStageUnpack:     "stage_unpack",
	HistStageFilter:     "stage_filter",
	HistStageGather:     "stage_gather",
	HistStageHTTPWrite:  "stage_http_write",
	HistStageRepack:     "stage_repack",
	HistStageScanDecode: "stage_scan_decode",
	HistClusterScatter:  "lat_cluster_scatter",
	HistClusterBackend:  "lat_cluster_backend",
	HistClusterFanout:   "cluster_fanout",
}

// HistName returns the stable metric-name prefix of id ("lat_scan",
// "stage_filter", ...).
func HistName(id HistID) string {
	if id < 0 || id >= NumHists {
		return "unknown"
	}
	return histNames[id]
}

// histBucket maps a duration in ns to its bucket index: the position of
// the highest set bit, clamped to the top bucket. Negative durations
// (clock steps) are clamped to bucket 0.
func histBucket(ns int64) int {
	if ns <= 1 {
		return 0
	}
	b := bits.Len64(uint64(ns)) - 1
	if b >= HistBuckets {
		return HistBuckets - 1
	}
	return b
}

// Histogram is one lock-free latency distribution. The zero value is
// ready for use; all methods are safe for concurrent use and the
// record path performs no allocation and takes no lock.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	ticks   atomic.Int64 // calls seen by SampleStage, sampled or not
	buckets [HistBuckets]atomic.Int64
}

// Record adds one duration sample in nanoseconds.
func (h *Histogram) Record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sum.Add(ns)
	h.buckets[histBucket(ns)].Add(1)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Snapshot copies the histogram. Concurrent recording may make the
// copy slightly torn between fields (count vs buckets), which is fine
// for monitoring: each field is individually consistent.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.SumNs = h.sum.Load()
	s.MaxNs = h.max.Load()
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// reset zeroes the histogram, including the sampling phase, so the
// first call after a reset is sampled again.
func (h *Histogram) reset() {
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
	h.ticks.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// HistSnapshot is a point-in-time copy of one histogram: plain values,
// safe to copy, compare, merge and serialize.
type HistSnapshot struct {
	Count   int64
	SumNs   int64
	MaxNs   int64
	Buckets [HistBuckets]int64
}

// Merge folds other into s (for combining per-shard or per-process
// snapshots; bucket boundaries are identical by construction).
func (s *HistSnapshot) Merge(other HistSnapshot) {
	s.Count += other.Count
	s.SumNs += other.SumNs
	if other.MaxNs > s.MaxNs {
		s.MaxNs = other.MaxNs
	}
	for i := range s.Buckets {
		s.Buckets[i] += other.Buckets[i]
	}
}

// Delta returns the growth of the histogram between two scrapes of the
// same collector: per-bucket count increases, count and sum deltas. A
// shrunk total count means the collector was reset between reads, so
// the whole current snapshot is the delta (mirroring CounterDelta).
// MaxNs carries the current observed max — it is a high-water gauge,
// not a differentiable counter. Individual bucket decreases without a
// count decrease (a torn concurrent read) clamp to zero rather than
// going negative, so downstream consumers always see a valid
// distribution.
func (s HistSnapshot) Delta(prev HistSnapshot) HistSnapshot {
	if s.Count < prev.Count {
		return s
	}
	d := HistSnapshot{
		Count: s.Count - prev.Count,
		SumNs: s.SumNs - prev.SumNs,
		MaxNs: s.MaxNs,
	}
	if d.SumNs < 0 {
		d.SumNs = 0
	}
	for i := range s.Buckets {
		if b := s.Buckets[i] - prev.Buckets[i]; b > 0 {
			d.Buckets[i] = b
		}
	}
	return d
}

// Mean returns the average sample in ns.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.SumNs) / float64(s.Count)
}

// Quantile estimates the q-quantile (0 < q <= 1) in ns by linear
// interpolation inside the bucket holding the target rank. The result
// is exact to within a factor of 2 (the bucket width) and clamped to
// the observed maximum, so P100 == MaxNs exactly.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q * float64(s.Count))
	if target < 1 {
		target = 1
	}
	var cum int64
	for b := 0; b < HistBuckets; b++ {
		n := s.Buckets[b]
		if n == 0 {
			continue
		}
		if cum+n >= target {
			lo, hi := bucketBounds(b)
			if hi > s.MaxNs {
				hi = s.MaxNs // the top occupied bucket ends at the observed max
			}
			if hi < lo {
				hi = lo
			}
			frac := float64(target-cum) / float64(n)
			v := lo + int64(frac*float64(hi-lo))
			return v
		}
		cum += n
	}
	return s.MaxNs
}

// bucketBounds returns the [lo, hi) nanosecond range of bucket b.
func bucketBounds(b int) (lo, hi int64) {
	if b == 0 {
		return 0, 2
	}
	return int64(1) << uint(b), int64(1) << uint(b+1)
}

// P50 returns the estimated median in ns.
func (s HistSnapshot) P50() int64 { return s.Quantile(0.50) }

// P95 returns the estimated 95th percentile in ns.
func (s HistSnapshot) P95() int64 { return s.Quantile(0.95) }

// P99 returns the estimated 99th percentile in ns.
func (s HistSnapshot) P99() int64 { return s.Quantile(0.99) }

// Max returns the largest recorded sample in ns.
func (s HistSnapshot) Max() int64 { return s.MaxNs }

// Flats returns the histogram's flat metric keys — <name>_count,
// <name>_sum_ns, <name>_p50_ns, <name>_p95_ns, <name>_p99_ns,
// <name>_max_ns — the exact keys /metrics serves and the
// metrics-history recorder stores as series.
func (s HistSnapshot) Flats(name string) []Metric {
	return []Metric{
		{name + "_count", s.Count},
		{name + "_sum_ns", s.SumNs},
		{name + "_p50_ns", s.P50()},
		{name + "_p95_ns", s.P95()},
		{name + "_p99_ns", s.P99()},
		{name + "_max_ns", s.MaxNs},
	}
}

// appendJSON appends the flat keys as pre-rendered JSON pairs. Flat
// int64 keys keep /metrics trivially consumable by anything that reads
// a name->number map.
func (s HistSnapshot) appendJSON(pairs []Extra, name string) []Extra {
	for _, m := range s.Flats(name) {
		pairs = append(pairs, Extra{m.Name, fmt.Sprintf("%d", m.Value)})
	}
	return pairs
}

// ---- collector integration ----

// stageSampleEvery is the sampling period of the per-kernel stage
// histograms: SampleStage approves one call in this many (power of
// two; the first call is always approved so short runs still produce
// samples). At ~1µs per kernel a scan saturating one core still
// yields ~30k samples/s, while the amortized clock-read cost per
// kernel drops to a few ns.
const stageSampleEvery = 32

// SampleStage reports whether this kernel invocation should be timed
// into stage histogram id. Per-vector kernels run in about a
// microsecond, so bracketing every call with two clock reads is a
// measurable tax (tens of percent on slow-clock hosts); instead the
// stage histograms sample one call in stageSampleEvery — still
// thousands of samples per second under load, and an unbiased picture
// of the distribution because the decision never looks at the work.
// The cost on unsampled calls is a single uncontended atomic add. The
// per-request endpoint histograms are unaffected: requests are orders
// of magnitude rarer than kernel calls and record every event.
// A nil collector never samples.
func (c *Collector) SampleStage(id HistID) bool {
	if c == nil || id < 0 || id >= NumHists {
		return false
	}
	return c.hists[id].ticks.Add(1)&(stageSampleEvery-1) == 1
}

// Observe records one duration sample into histogram id. No-op on a
// nil collector or an out-of-range id.
func (c *Collector) Observe(id HistID, ns int64) {
	if c == nil || id < 0 || id >= NumHists {
		return
	}
	c.hists[id].Record(ns)
}

// Hist snapshots one histogram. A nil collector yields a zero snapshot.
func (c *Collector) Hist(id HistID) HistSnapshot {
	if c == nil || id < 0 || id >= NumHists {
		return HistSnapshot{}
	}
	return c.hists[id].Snapshot()
}
