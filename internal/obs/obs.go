// Package obs is the codec-wide observability substrate: a
// zero-dependency set of atomic counters that the encoder, the format
// layer and the scan engine report into, so every adaptive decision ALP
// makes at runtime — scheme selection per row-group, second-stage
// sampling effort per vector, exception patching, zone-map skipping,
// morsel claiming — is visible without a debugger.
//
// The design contract is the nil-safe collector pattern: every method
// on *Collector is a no-op when the receiver is nil, so instrumented
// hot paths pay exactly one predictable, well-predicted branch when
// metrics are disabled. Call sites never guard with `if enabled`; they
// just call methods on a possibly-nil pointer:
//
//	o := obs.Active()                    // nil when collection is disabled
//	...
//	o.Add(obs.VectorsSkipped, skipped)   // no-op on nil, one atomic add otherwise
//
// All counters are atomics, so a single Collector can be shared by
// every goroutine of a morsel-parallel scan and read concurrently via
// Snapshot without stopping the world.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// MaxBitWidth is the largest FFOR bit width tracked by the per-width
// histogram (float64 integers pack at 0..64 bits).
const MaxBitWidth = 64

// CounterID names one monotonic event counter. The counters table
// declares each one once, with its metric name and help line; the
// collector's storage, Snapshot, Reset, Counters (and through it the
// /metrics JSON, the Prometheus text and the metrics-history schema)
// and alp.Stats all derive from that table.
type CounterID int

// The counters, in schema order: Counters, the Prometheus exposition
// and the metrics-history series (and so ALPM snapshots) list them in
// this order.
const (
	// Encode side.
	RowGroupsALP CounterID = iota
	RowGroupsRD
	VectorsEncoded
	EncodeExceptions
	EncodeNs
	EncodeValues

	// Sampling (first level per row-group, second level per vector, §3.2).
	SecondStageSkips
	SecondStageEarlyExits
	SecondStageTried
	RDSampledRowGroups
	RDCutsTried
	RDDictEntries

	// Decode / scan side.
	VectorsDecoded
	VectorsSkipped
	DecodeNs
	DecodeValues
	RangeScans
	MorselClaims
	ScanWorkers

	// Encoded-domain predicate pushdown.
	PushdownVectors
	PushdownFallbacks
	SelectedRows

	// Encode/decode pipeline (internal/pipeline).
	PipelineWorkers
	PipelineClaims
	PipelineStalls

	// Column service (internal/server).
	ServerRequests
	ServerSheds
	ServerRefused
	ServerBytesIn
	ServerBytesOut
	ServerScans

	// Selection-aware scan wire format.
	ScanFramesDense
	ScanFramesRepacked
	ScanFramesRaw
	ScanBytesSaved

	// Scatter-gather coordinator (internal/cluster).
	ClusterScatters
	ClusterCalls
	ClusterFailovers
	ClusterPartial
	ClusterStragglers
	ClusterRebalances

	NumCounters
)

// counters is the counter table: each counter's stable metric name and
// its one-line help text.
var counters = [NumCounters]struct{ name, help string }{
	RowGroupsALP:     {"row_groups_alp", "row-groups encoded with the decimal scheme"},
	RowGroupsRD:      {"row_groups_rd", "row-groups that fell back to ALP_rd"},
	VectorsEncoded:   {"vectors_encoded", "vectors encoded (both schemes)"},
	EncodeExceptions: {"encode_exceptions", "exception slots written during encode"},
	EncodeNs:         {"encode_ns", "wall ns spent in row-group encoding"},
	EncodeValues:     {"encode_values", "values encoded"},

	SecondStageSkips:      {"second_stage_skips", "vectors where sampling was skipped (1 candidate)"},
	SecondStageEarlyExits: {"second_stage_early_exits", "vectors where the greedy search exited early"},
	SecondStageTried:      {"second_stage_tried", "candidate combinations evaluated in total"},
	RDSampledRowGroups:    {"rd_sampled_row_groups", "row-groups that ran ALP_rd sampling"},
	RDCutsTried:           {"rd_cuts_tried", "ALP_rd cut positions evaluated during sampling"},
	RDDictEntries:         {"rd_dict_entries", "ALP_rd dictionary entries chosen"},

	VectorsDecoded: {"vectors_decoded", "vectors decompressed (any access path)"},
	VectorsSkipped: {"vectors_skipped", "vectors skipped by zone-map push-down"},
	DecodeNs:       {"decode_ns", "wall ns spent decompressing vectors (for a vector a filtered aggregate folds whole from its integers, the unpack and the fold)"},
	DecodeValues:   {"decode_values", "values decompressed"},
	RangeScans:     {"range_scans", "SumRange scans executed"},
	MorselClaims:   {"morsel_claims", "partitions claimed by parallel engine scans (a one-worker scan runs inline and counts none)"},
	ScanWorkers:    {"scan_workers", "worker goroutines launched by parallel engine scans (a one-worker scan runs inline and counts none)"},

	PushdownVectors:   {"pushdown_vectors", "vectors filtered by the fused unpack+compare kernel"},
	PushdownFallbacks: {"pushdown_fallbacks", "vectors that fell back to decode-then-filter"},
	SelectedRows:      {"selected_rows", "rows that qualified under a pushed-down predicate"},

	PipelineWorkers: {"pipeline_workers", "workers spawned by the codec pipeline"},
	PipelineClaims:  {"pipeline_claims", "row-groups claimed by pipeline workers"},
	PipelineStalls:  {"pipeline_stalls", "submissions that blocked on a full window"},

	ServerRequests: {"server_requests", "HTTP requests admitted by the service"},
	ServerSheds:    {"server_sheds", "requests shed with 429 by the concurrency limiter"},
	ServerRefused:  {"server_refused", "requests refused with 503 while draining"},
	ServerBytesIn:  {"server_bytes_in", "request payload bytes read (ingest)"},
	ServerBytesOut: {"server_bytes_out", "response payload bytes written"},
	ServerScans:    {"server_scans", "scan/agg/count requests served"},

	ScanFramesDense:    {"scan_frames_dense", "frames shipped as envelope + bitmap"},
	ScanFramesRepacked: {"scan_frames_repacked", "frames shipped as re-packed ALP vectors"},
	ScanFramesRaw:      {"scan_frames_raw", "frames that fell back to raw float64s"},
	ScanBytesSaved:     {"scan_bytes_saved", "raw-encoding bytes minus actual wire bytes"},

	ClusterScatters:   {"cluster_scatters", "scatter fan-outs executed (one per clustered query)"},
	ClusterCalls:      {"cluster_backend_calls", "backend calls issued by scatters"},
	ClusterFailovers:  {"cluster_failovers", "row-group groups re-fetched from a replica"},
	ClusterPartial:    {"cluster_partial_unavailable", "queries failed typed partial-unavailable"},
	ClusterStragglers: {"cluster_stragglers", "scatters whose slowest backend took more than twice the fastest"},
	ClusterRebalances: {"cluster_rebalances", "row-group range moves completed"},
}

// CounterName returns the stable metric name of id ("vectors_decoded",
// ...).
func CounterName(id CounterID) string {
	if id < 0 || id >= NumCounters {
		return "unknown"
	}
	return counters[id].name
}

// CounterHelp returns the one-line help text of id.
func CounterHelp(id CounterID) string {
	if id < 0 || id >= NumCounters {
		return ""
	}
	return counters[id].help
}

// Collector accumulates codec metrics on atomic counters. The zero
// value is ready for use; a nil *Collector is also valid and turns
// every method into a cheap no-op.
type Collector struct {
	counters     [NumCounters]atomic.Int64
	bitWidthHist [MaxBitWidth + 1]atomic.Int64

	// Latency histograms: per server endpoint and per engine stage.
	// Durations live here (mergeable distributions with quantiles);
	// the counters above stay monotonic event counts.
	hists [NumHists]Histogram
}

// Add adds n to counter id. No-op on a nil collector. It is small
// enough to inline, so at a constant id it compiles to the nil check
// and one atomic add.
func (c *Collector) Add(id CounterID, n int64) {
	if c == nil {
		return
	}
	c.counters[id].Add(n)
}

// ---- hooks that touch several counters or a histogram ----

// RowGroup records the scheme chosen for one row-group.
func (c *Collector) RowGroup(usedRD bool) {
	if c == nil {
		return
	}
	if usedRD {
		c.counters[RowGroupsRD].Add(1)
	} else {
		c.counters[RowGroupsALP].Add(1)
	}
}

// VectorEncoded records one encoded vector: its value count, its
// exception count, and (for the decimal scheme) its FFOR bit width,
// which feeds the bit-width histogram. Pass width > MaxBitWidth (e.g.
// WidthNone) to leave the histogram untouched.
func (c *Collector) VectorEncoded(values, exceptions int, width uint) {
	if c == nil {
		return
	}
	c.counters[VectorsEncoded].Add(1)
	c.counters[EncodeExceptions].Add(int64(exceptions))
	if width <= MaxBitWidth {
		c.bitWidthHist[width].Add(1)
	}
}

// WidthNone is a sentinel bit width for vectors without an FFOR payload
// (ALP_rd vectors); it keeps them out of the bit-width histogram.
const WidthNone = MaxBitWidth + 1

// EncodeTime records ns wall time spent encoding values.
func (c *Collector) EncodeTime(ns int64, values int) {
	if c == nil {
		return
	}
	c.counters[EncodeNs].Add(ns)
	c.counters[EncodeValues].Add(int64(values))
}

// SecondStage records one second-level sampling run: how many candidate
// combinations were evaluated and whether the greedy search exited
// before exhausting the candidate list.
func (c *Collector) SecondStage(tried int, early bool) {
	if c == nil {
		return
	}
	c.counters[SecondStageTried].Add(int64(tried))
	if early {
		c.counters[SecondStageEarlyExits].Add(1)
	}
}

// RDSampled records one ALP_rd first-level sampling run: the number of
// cut positions evaluated and the dictionary size chosen.
func (c *Collector) RDSampled(cutsTried, dictEntries int) {
	if c == nil {
		return
	}
	c.counters[RDSampledRowGroups].Add(1)
	c.counters[RDCutsTried].Add(int64(cutsTried))
	c.counters[RDDictEntries].Add(int64(dictEntries))
}

// VectorDecoded records one decompressed vector of n values taking ns
// wall time (pass 0 ns when the caller does not time the decode).
func (c *Collector) VectorDecoded(n int, ns int64) {
	if c == nil {
		return
	}
	c.counters[VectorsDecoded].Add(1)
	c.counters[DecodeValues].Add(int64(n))
	c.counters[DecodeNs].Add(ns)
}

// ScanBatch accumulates the per-vector pushdown counters of one scan
// loop in plain locals. Filtered scans visit thousands of ~µs vectors
// per request; recording three atomic counters per vector is a
// measurable tax on that path, so the loops fold results into a batch
// and flush once per partition — same totals, amortized cost.
type ScanBatch struct {
	Pushdown  int64 // vectors answered in the encoded-integer domain
	Fallbacks int64 // vectors decoded and filtered in the float domain
	Rows      int64 // rows selected
}

// Vector folds one FilterVector/FilterGatherVector result into the
// batch.
func (b *ScanBatch) Vector(count int, pushdown bool) {
	if pushdown {
		b.Pushdown++
	} else {
		b.Fallbacks++
	}
	b.Rows += int64(count)
}

// FlushScanBatch adds the batch to the counters and zeroes it, so one
// batch can be reused across partitions. No-op on a nil collector (the
// batch is still zeroed) or an empty batch.
func (c *Collector) FlushScanBatch(b *ScanBatch) {
	if c != nil {
		c.addNonZero(PushdownVectors, b.Pushdown)
		c.addNonZero(PushdownFallbacks, b.Fallbacks)
		c.addNonZero(SelectedRows, b.Rows)
	}
	*b = ScanBatch{}
}

// ScanFrames records one scan request's wire-frame mix: how many frames
// went out under each encoding, and the bytes the compressed encodings
// saved against the raw-float64 floor (raw cost of every selected row
// minus the actual frame bytes, framing included; raw frames contribute
// their own overhead as negative savings). Batched per request like
// ScanBatch — one call per served scan, not per vector.
func (c *Collector) ScanFrames(dense, repacked, raw, bytesSaved int64) {
	if c == nil {
		return
	}
	c.addNonZero(ScanFramesDense, dense)
	c.addNonZero(ScanFramesRepacked, repacked)
	c.addNonZero(ScanFramesRaw, raw)
	c.addNonZero(ScanBytesSaved, bytesSaved)
}

// addNonZero adds n to counter id unless n is zero, sparing the batched
// flushes an atomic add for every counter they did not move.
func (c *Collector) addNonZero(id CounterID, n int64) {
	if n != 0 {
		c.counters[id].Add(n)
	}
}

// ClusterScatter records one clustered query's fan-out: the number of
// distinct backends the query scattered to lands in the
// HistClusterFanout width histogram.
func (c *Collector) ClusterScatter(fanout int) {
	if c == nil {
		return
	}
	c.counters[ClusterScatters].Add(1)
	c.hists[HistClusterFanout].Record(int64(fanout))
}

// ---- snapshot ----

// Snapshot is a point-in-time copy of every counter, safe to read,
// compare and serialize.
type Snapshot struct {
	// Counter[id] is the value of counter id (see CounterID).
	Counter      [NumCounters]int64
	BitWidthHist [MaxBitWidth + 1]int64

	// Hists[id] is the snapshot of latency histogram id (see HistID).
	Hists [NumHists]HistSnapshot
}

// Snapshot copies the counters. A nil Collector yields a zero Snapshot.
func (c *Collector) Snapshot() Snapshot {
	var s Snapshot
	if c == nil {
		return s
	}
	for i := range s.Counter {
		s.Counter[i] = c.counters[i].Load()
	}
	for i := range s.BitWidthHist {
		s.BitWidthHist[i] = c.bitWidthHist[i].Load()
	}
	for i := range s.Hists {
		s.Hists[i] = c.hists[i].Snapshot()
	}
	return s
}

// Reset zeroes every counter. No-op on nil.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	for i := range c.counters {
		c.counters[i].Store(0)
	}
	for i := range c.bitWidthHist {
		c.bitWidthHist[i].Store(0)
	}
	for i := range c.hists {
		c.hists[i].reset()
	}
}

// Metric is one flat metric: a stable name and its current value. The
// names are the public keys surfaced through /metrics and the series
// names the metrics-history recorder stores.
type Metric struct {
	Name  string
	Value int64
}

// Counters returns every counter of the snapshot as a flat name/value
// list, in CounterID order. The JSON rendering, the Prometheus
// exposition and the metrics-history recorder all derive their key
// sets from it.
func (s Snapshot) Counters() []Metric {
	out := make([]Metric, NumCounters)
	for id := range out {
		out[id] = Metric{counters[id].name, s.Counter[id]}
	}
	return out
}

// CounterDelta returns the increase of a monotonic counter between two
// scrapes, treating a decrease as a counter reset: the collector was
// reset (or the process restarted) between reads, so the previous
// total no longer applies and the whole new total is the delta.
func CounterDelta(cur, prev int64) int64 {
	if cur < prev {
		return cur
	}
	return cur - prev
}

// Extra is one additional JSON key spliced into a snapshot rendering —
// the value must already be valid JSON (the server uses this to merge
// its per-column registry stats into the /metrics object while keeping
// the sorted key order).
type Extra struct {
	Name string
	JSON string
}

// String renders the snapshot as a JSON object, making Snapshot usable
// directly as an expvar.Var. Hand-rolled so the package stays free of
// encoding/json. Histograms surface as flat <name>_{count,sum_ns,
// p50_ns,p95_ns,p99_ns,max_ns} keys so a name->number metrics consumer
// picks the quantiles up without knowing the bucket layout. Keys are
// emitted in sorted order, so two renderings of equal snapshots are
// byte-identical and diffs between reads are positional.
func (s Snapshot) String() string { return s.JSON() }

// JSON renders the snapshot like String with extra pre-rendered keys
// merged in, all in sorted key order.
func (s Snapshot) JSON(extras ...Extra) string {
	pairs := make([]Extra, 0, len(s.Counters())+6*len(s.Hists)+len(extras)+1)
	for _, c := range s.Counters() {
		pairs = append(pairs, Extra{c.Name, fmt.Sprintf("%d", c.Value)})
	}
	for i := range s.Hists {
		pairs = s.Hists[i].appendJSON(pairs, histNames[i])
	}
	var hist strings.Builder
	hist.WriteByte('[')
	for i, v := range s.BitWidthHist {
		if i > 0 {
			hist.WriteByte(',')
		}
		fmt.Fprintf(&hist, "%d", v)
	}
	hist.WriteByte(']')
	pairs = append(pairs, Extra{"bit_width_hist", hist.String()})
	pairs = append(pairs, extras...)
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Name < pairs[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%s", p.Name, p.JSON)
	}
	b.WriteByte('}')
	return b.String()
}

// ---- global collector ----

// active is the process-wide collector; nil means collection is off.
var active atomic.Pointer[Collector]

// Enable turns on global collection (idempotent) and returns the
// collector.
func Enable() *Collector {
	for {
		if c := active.Load(); c != nil {
			return c
		}
		c := &Collector{}
		if active.CompareAndSwap(nil, c) {
			return c
		}
	}
}

// Disable turns off global collection. Instrumented paths drop back to
// their single nil-check branch.
func Disable() {
	active.Store(nil)
}

// Active returns the global collector, or nil when collection is
// disabled. Hot paths load it once per operation and call nil-safe
// methods on the result.
func Active() *Collector {
	return active.Load()
}
