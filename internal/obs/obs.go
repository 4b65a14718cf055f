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
//	o := obs.Active()          // nil when collection is disabled
//	...
//	o.VectorDecoded(n, 0)      // no-op on nil, atomic adds otherwise
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

// Collector accumulates codec metrics on atomic counters. The zero
// value is ready for use; a nil *Collector is also valid and turns
// every method into a cheap no-op.
type Collector struct {
	// Encode side.
	rowGroupsALP   atomic.Int64 // row-groups encoded with the decimal scheme
	rowGroupsRD    atomic.Int64 // row-groups that fell back to ALP_rd
	vectorsEncoded atomic.Int64 // vectors encoded (both schemes)
	encExceptions  atomic.Int64 // exception slots written during encode
	encNs          atomic.Int64 // wall ns spent in row-group encoding
	encValues      atomic.Int64 // values encoded

	// Second-stage sampling (per-vector (e,f) choice, §3.2).
	secondStageSkips atomic.Int64 // vectors where sampling was skipped (1 candidate)
	secondStageEarly atomic.Int64 // vectors where the greedy search exited early
	secondStageTried atomic.Int64 // candidate combinations evaluated in total
	rdCutsTried      atomic.Int64 // ALP_rd cut positions evaluated during sampling
	rdDictEntries    atomic.Int64 // ALP_rd dictionary entries chosen
	bitWidthHist     [MaxBitWidth + 1]atomic.Int64
	rdSampledGroups  atomic.Int64 // row-groups that ran ALP_rd sampling

	// Decode / scan side.
	vectorsDecoded atomic.Int64 // vectors decompressed (any access path)
	vectorsSkipped atomic.Int64 // vectors skipped by zone-map push-down
	decNs          atomic.Int64 // wall ns spent decompressing vectors
	decValues      atomic.Int64 // values decompressed
	rangeScans     atomic.Int64 // SumRange scans executed
	morselClaims   atomic.Int64 // partitions claimed by scan workers
	scanWorkers    atomic.Int64 // worker goroutines launched by the engine

	// Encoded-domain predicate pushdown.
	pushdownVectors   atomic.Int64 // vectors filtered by the fused unpack+compare kernel
	pushdownFallbacks atomic.Int64 // vectors that fell back to decode-then-filter
	selectedRows      atomic.Int64 // rows that qualified under a pushed-down predicate

	// Encode/decode pipeline (internal/pipeline worker pool).
	pipelineWorkers atomic.Int64 // workers spawned by the codec pipeline
	pipelineClaims  atomic.Int64 // row-groups claimed by pipeline workers
	pipelineStalls  atomic.Int64 // submissions that blocked on a full window

	// Column service (internal/server).
	serverRequests atomic.Int64 // HTTP requests admitted by the service
	serverSheds    atomic.Int64 // requests shed with 429 by the concurrency limiter
	serverRefused  atomic.Int64 // requests refused with 503 while draining
	serverBytesIn  atomic.Int64 // request payload bytes read (ingest)
	serverBytesOut atomic.Int64 // response payload bytes written
	serverScans    atomic.Int64 // scan/agg/count requests served

	// Selection-aware scan wire format.
	scanFramesDense    atomic.Int64 // frames shipped as envelope + bitmap
	scanFramesRepacked atomic.Int64 // frames shipped as re-packed ALP vectors
	scanFramesRaw      atomic.Int64 // frames that fell back to raw float64s
	scanBytesSaved     atomic.Int64 // raw-encoding bytes minus actual wire bytes

	// Scatter-gather coordinator (internal/cluster).
	clusterScatters   atomic.Int64 // scatter fan-outs executed (one per clustered query)
	clusterCalls      atomic.Int64 // backend calls issued by scatters
	clusterFailovers  atomic.Int64 // row-group groups re-fetched from a replica
	clusterPartial    atomic.Int64 // queries failed typed partial-unavailable
	clusterStragglers atomic.Int64 // scatters whose slowest backend dominated (see ClusterStraggler)
	clusterRebalances atomic.Int64 // row-group range moves completed

	// Latency histograms: per server endpoint and per engine stage.
	// Durations live here (mergeable distributions with quantiles);
	// the counters above stay monotonic event counts. The old
	// server_scan_ns aggregate was retired in favor of the endpoint
	// histograms, which cover every endpoint symmetrically.
	hists [NumHists]Histogram
}

// ---- encode-side hooks ----

// RowGroup records the scheme chosen for one row-group.
func (c *Collector) RowGroup(usedRD bool) {
	if c == nil {
		return
	}
	if usedRD {
		c.rowGroupsRD.Add(1)
	} else {
		c.rowGroupsALP.Add(1)
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
	c.vectorsEncoded.Add(1)
	c.encExceptions.Add(int64(exceptions))
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
	c.encNs.Add(ns)
	c.encValues.Add(int64(values))
}

// SecondStageSkipped records a vector whose (e,f) choice needed no
// sampling because first-level sampling produced a single candidate.
func (c *Collector) SecondStageSkipped() {
	if c == nil {
		return
	}
	c.secondStageSkips.Add(1)
}

// SecondStage records one second-level sampling run: how many candidate
// combinations were evaluated and whether the greedy search exited
// before exhausting the candidate list.
func (c *Collector) SecondStage(tried int, early bool) {
	if c == nil {
		return
	}
	c.secondStageTried.Add(int64(tried))
	if early {
		c.secondStageEarly.Add(1)
	}
}

// RDSampled records one ALP_rd first-level sampling run: the number of
// cut positions evaluated and the dictionary size chosen.
func (c *Collector) RDSampled(cutsTried, dictEntries int) {
	if c == nil {
		return
	}
	c.rdSampledGroups.Add(1)
	c.rdCutsTried.Add(int64(cutsTried))
	c.rdDictEntries.Add(int64(dictEntries))
}

// ---- decode/scan-side hooks ----

// VectorDecoded records one decompressed vector of n values taking ns
// wall time (pass 0 ns when the caller does not time the decode).
func (c *Collector) VectorDecoded(n int, ns int64) {
	if c == nil {
		return
	}
	c.vectorsDecoded.Add(1)
	c.decValues.Add(int64(n))
	c.decNs.Add(ns)
}

// VectorsSkipped records n vectors pruned by zone-map push-down without
// touching their bytes.
func (c *Collector) VectorsSkipped(n int) {
	if c == nil {
		return
	}
	c.vectorsSkipped.Add(int64(n))
}

// RangeScan records one zone-map range scan (SumRange).
func (c *Collector) RangeScan() {
	if c == nil {
		return
	}
	c.rangeScans.Add(1)
}

// PushdownVector records one vector whose range predicate was
// evaluated in the encoded-integer domain by the fused unpack+compare
// kernel, without decoding to floats.
func (c *Collector) PushdownVector() {
	if c == nil {
		return
	}
	c.pushdownVectors.Add(1)
}

// PushdownFallback records one vector that could not be filtered in
// the encoded domain (ALP_rd or baseline partitions) and was decoded
// and filtered in the float domain instead.
func (c *Collector) PushdownFallback() {
	if c == nil {
		return
	}
	c.pushdownFallbacks.Add(1)
}

// RowsSelected records n rows qualifying under a filtered scan.
func (c *Collector) RowsSelected(n int) {
	if c == nil {
		return
	}
	c.selectedRows.Add(int64(n))
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
		if b.Pushdown != 0 {
			c.pushdownVectors.Add(b.Pushdown)
		}
		if b.Fallbacks != 0 {
			c.pushdownFallbacks.Add(b.Fallbacks)
		}
		if b.Rows != 0 {
			c.selectedRows.Add(b.Rows)
		}
	}
	*b = ScanBatch{}
}

// MorselClaim records one partition claimed by a scan worker.
func (c *Collector) MorselClaim() {
	if c == nil {
		return
	}
	c.morselClaims.Add(1)
}

// ScanWorkers records n worker goroutines launched for a scan.
func (c *Collector) ScanWorkers(n int) {
	if c == nil {
		return
	}
	c.scanWorkers.Add(int64(n))
}

// ---- pipeline hooks ----

// PipelineWorkers records n worker goroutines spawned by the
// encode/decode pipeline.
func (c *Collector) PipelineWorkers(n int) {
	if c == nil {
		return
	}
	c.pipelineWorkers.Add(int64(n))
}

// PipelineClaim records one row-group claimed by a pipeline worker.
func (c *Collector) PipelineClaim() {
	if c == nil {
		return
	}
	c.pipelineClaims.Add(1)
}

// PipelineStall records one submission that found the bounded in-flight
// window full and had to block — back-pressure from encode workers
// slower than the producer.
func (c *Collector) PipelineStall() {
	if c == nil {
		return
	}
	c.pipelineStalls.Add(1)
}

// ---- column-service hooks ----

// ServerRequest records one HTTP request admitted past the service's
// concurrency limiter.
func (c *Collector) ServerRequest() {
	if c == nil {
		return
	}
	c.serverRequests.Add(1)
}

// ServerShed records one request shed with 429 because the concurrency
// limiter was saturated.
func (c *Collector) ServerShed() {
	if c == nil {
		return
	}
	c.serverSheds.Add(1)
}

// ServerRefused records one request refused with 503 while the service
// was draining for shutdown.
func (c *Collector) ServerRefused() {
	if c == nil {
		return
	}
	c.serverRefused.Add(1)
}

// ServerBytesIn records n request payload bytes read by the service.
func (c *Collector) ServerBytesIn(n int64) {
	if c == nil {
		return
	}
	c.serverBytesIn.Add(n)
}

// ServerBytesOut records n response payload bytes written by the
// service.
func (c *Collector) ServerBytesOut(n int64) {
	if c == nil {
		return
	}
	c.serverBytesOut.Add(n)
}

// ServerScanned records one served scan/agg/count request. Durations
// are no longer folded into a counter here — the per-endpoint latency
// histograms (Observe with HistAgg/HistCount/HistScan) carry them.
// ---- scatter-gather coordinator hooks ----

// ClusterScatter records one clustered query's fan-out: the number of
// distinct backends the query scattered to lands in the
// HistClusterFanout width histogram.
func (c *Collector) ClusterScatter(fanout int) {
	if c == nil {
		return
	}
	c.clusterScatters.Add(1)
	c.hists[HistClusterFanout].Record(int64(fanout))
}

// ClusterCall records one backend call issued by a scatter.
func (c *Collector) ClusterCall() {
	if c == nil {
		return
	}
	c.clusterCalls.Add(1)
}

// ClusterFailover records a group of row-groups re-fetched from a
// replica after their chosen backend failed.
func (c *Collector) ClusterFailover() {
	if c == nil {
		return
	}
	c.clusterFailovers.Add(1)
}

// ClusterPartialUnavailable records a clustered query that failed with
// the typed partial-unavailability error: some row-groups had no
// answering replica, and the coordinator refused to serve a silent
// partial result.
func (c *Collector) ClusterPartialUnavailable() {
	if c == nil {
		return
	}
	c.clusterPartial.Add(1)
}

// ClusterStraggler records a scatter whose slowest backend took more
// than twice the fastest — the signal for a shard that drags every
// fan-out behind it.
func (c *Collector) ClusterStraggler() {
	if c == nil {
		return
	}
	c.clusterStragglers.Add(1)
}

// ClusterRebalance records one completed row-group range move.
func (c *Collector) ClusterRebalance() {
	if c == nil {
		return
	}
	c.clusterRebalances.Add(1)
}

func (c *Collector) ServerScanned() {
	if c == nil {
		return
	}
	c.serverScans.Add(1)
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
	if dense != 0 {
		c.scanFramesDense.Add(dense)
	}
	if repacked != 0 {
		c.scanFramesRepacked.Add(repacked)
	}
	if raw != 0 {
		c.scanFramesRaw.Add(raw)
	}
	if bytesSaved != 0 {
		c.scanBytesSaved.Add(bytesSaved)
	}
}

// ---- snapshot ----

// Snapshot is a point-in-time copy of every counter, safe to read,
// compare and serialize. Field names are stable: they are the public
// metric names surfaced through alp.Stats and expvar.
type Snapshot struct {
	RowGroupsALP     int64
	RowGroupsRD      int64
	VectorsEncoded   int64
	EncodeExceptions int64
	EncodeNs         int64
	EncodeValues     int64

	SecondStageSkips      int64
	SecondStageEarlyExits int64
	SecondStageTried      int64
	RDSampledRowGroups    int64
	RDCutsTried           int64
	RDDictEntries         int64
	BitWidthHist          [MaxBitWidth + 1]int64

	VectorsDecoded int64
	VectorsSkipped int64
	DecodeNs       int64
	DecodeValues   int64
	RangeScans     int64
	MorselClaims   int64
	ScanWorkers    int64

	PushdownVectors   int64
	PushdownFallbacks int64
	SelectedRows      int64

	PipelineWorkers int64
	PipelineClaims  int64
	PipelineStalls  int64

	ServerRequests int64
	ServerSheds    int64
	ServerRefused  int64
	ServerBytesIn  int64
	ServerBytesOut int64
	ServerScans    int64

	ScanFramesDense    int64
	ScanFramesRepacked int64
	ScanFramesRaw      int64
	ScanBytesSaved     int64

	ClusterScatters   int64
	ClusterCalls      int64
	ClusterFailovers  int64
	ClusterPartial    int64
	ClusterStragglers int64
	ClusterRebalances int64

	// Hists[id] is the snapshot of latency histogram id (see HistID).
	Hists [NumHists]HistSnapshot
}

// Snapshot copies the counters. A nil Collector yields a zero Snapshot.
func (c *Collector) Snapshot() Snapshot {
	var s Snapshot
	if c == nil {
		return s
	}
	s.RowGroupsALP = c.rowGroupsALP.Load()
	s.RowGroupsRD = c.rowGroupsRD.Load()
	s.VectorsEncoded = c.vectorsEncoded.Load()
	s.EncodeExceptions = c.encExceptions.Load()
	s.EncodeNs = c.encNs.Load()
	s.EncodeValues = c.encValues.Load()
	s.SecondStageSkips = c.secondStageSkips.Load()
	s.SecondStageEarlyExits = c.secondStageEarly.Load()
	s.SecondStageTried = c.secondStageTried.Load()
	s.RDSampledRowGroups = c.rdSampledGroups.Load()
	s.RDCutsTried = c.rdCutsTried.Load()
	s.RDDictEntries = c.rdDictEntries.Load()
	for i := range s.BitWidthHist {
		s.BitWidthHist[i] = c.bitWidthHist[i].Load()
	}
	s.VectorsDecoded = c.vectorsDecoded.Load()
	s.VectorsSkipped = c.vectorsSkipped.Load()
	s.DecodeNs = c.decNs.Load()
	s.DecodeValues = c.decValues.Load()
	s.RangeScans = c.rangeScans.Load()
	s.MorselClaims = c.morselClaims.Load()
	s.ScanWorkers = c.scanWorkers.Load()
	s.PushdownVectors = c.pushdownVectors.Load()
	s.PushdownFallbacks = c.pushdownFallbacks.Load()
	s.SelectedRows = c.selectedRows.Load()
	s.PipelineWorkers = c.pipelineWorkers.Load()
	s.PipelineClaims = c.pipelineClaims.Load()
	s.PipelineStalls = c.pipelineStalls.Load()
	s.ServerRequests = c.serverRequests.Load()
	s.ServerSheds = c.serverSheds.Load()
	s.ServerRefused = c.serverRefused.Load()
	s.ServerBytesIn = c.serverBytesIn.Load()
	s.ServerBytesOut = c.serverBytesOut.Load()
	s.ServerScans = c.serverScans.Load()
	s.ScanFramesDense = c.scanFramesDense.Load()
	s.ScanFramesRepacked = c.scanFramesRepacked.Load()
	s.ScanFramesRaw = c.scanFramesRaw.Load()
	s.ScanBytesSaved = c.scanBytesSaved.Load()
	s.ClusterScatters = c.clusterScatters.Load()
	s.ClusterCalls = c.clusterCalls.Load()
	s.ClusterFailovers = c.clusterFailovers.Load()
	s.ClusterPartial = c.clusterPartial.Load()
	s.ClusterStragglers = c.clusterStragglers.Load()
	s.ClusterRebalances = c.clusterRebalances.Load()
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
	c.rowGroupsALP.Store(0)
	c.rowGroupsRD.Store(0)
	c.vectorsEncoded.Store(0)
	c.encExceptions.Store(0)
	c.encNs.Store(0)
	c.encValues.Store(0)
	c.secondStageSkips.Store(0)
	c.secondStageEarly.Store(0)
	c.secondStageTried.Store(0)
	c.rdSampledGroups.Store(0)
	c.rdCutsTried.Store(0)
	c.rdDictEntries.Store(0)
	for i := range c.bitWidthHist {
		c.bitWidthHist[i].Store(0)
	}
	c.vectorsDecoded.Store(0)
	c.vectorsSkipped.Store(0)
	c.decNs.Store(0)
	c.decValues.Store(0)
	c.rangeScans.Store(0)
	c.morselClaims.Store(0)
	c.scanWorkers.Store(0)
	c.pushdownVectors.Store(0)
	c.pushdownFallbacks.Store(0)
	c.selectedRows.Store(0)
	c.pipelineWorkers.Store(0)
	c.pipelineClaims.Store(0)
	c.pipelineStalls.Store(0)
	c.serverRequests.Store(0)
	c.serverSheds.Store(0)
	c.serverRefused.Store(0)
	c.serverBytesIn.Store(0)
	c.serverBytesOut.Store(0)
	c.serverScans.Store(0)
	c.scanFramesDense.Store(0)
	c.scanFramesRepacked.Store(0)
	c.scanFramesRaw.Store(0)
	c.scanBytesSaved.Store(0)
	c.clusterScatters.Store(0)
	c.clusterCalls.Store(0)
	c.clusterFailovers.Store(0)
	c.clusterPartial.Store(0)
	c.clusterStragglers.Store(0)
	c.clusterRebalances.Store(0)
	for i := range c.hists {
		c.hists[i].reset()
	}
}

// EncodeNsPerValue returns the average encode cost in ns/value.
func (s Snapshot) EncodeNsPerValue() float64 {
	if s.EncodeValues == 0 {
		return 0
	}
	return float64(s.EncodeNs) / float64(s.EncodeValues)
}

// DecodeNsPerValue returns the average decode cost in ns/value.
func (s Snapshot) DecodeNsPerValue() float64 {
	if s.DecodeValues == 0 {
		return 0
	}
	return float64(s.DecodeNs) / float64(s.DecodeValues)
}

// SkipRate returns the fraction of scan vectors pruned by zone maps,
// out of those pruned or decompressed. A vector a filtered scan answers
// in the encoded domain without decompressing it counts in neither, so
// a selective SumRange or AggRange can report a rate of 1.
func (s Snapshot) SkipRate() float64 {
	total := s.VectorsDecoded + s.VectorsSkipped
	if total == 0 {
		return 0
	}
	return float64(s.VectorsSkipped) / float64(total)
}

// Metric is one flat metric: a stable name and its current value. The
// names are the public keys surfaced through /metrics and the series
// names the metrics-history recorder stores.
type Metric struct {
	Name  string
	Value int64
}

// Counters returns every scalar counter of the snapshot as a flat
// name/value list, in declaration order. This is the single source of
// truth for the counter schema: the JSON rendering, the Prometheus
// exposition and the metrics-history recorder all derive their key
// sets from it, so a counter added here shows up everywhere.
func (s Snapshot) Counters() []Metric {
	return []Metric{
		{"row_groups_alp", s.RowGroupsALP},
		{"row_groups_rd", s.RowGroupsRD},
		{"vectors_encoded", s.VectorsEncoded},
		{"encode_exceptions", s.EncodeExceptions},
		{"encode_ns", s.EncodeNs},
		{"encode_values", s.EncodeValues},
		{"second_stage_skips", s.SecondStageSkips},
		{"second_stage_early_exits", s.SecondStageEarlyExits},
		{"second_stage_tried", s.SecondStageTried},
		{"rd_sampled_row_groups", s.RDSampledRowGroups},
		{"rd_cuts_tried", s.RDCutsTried},
		{"rd_dict_entries", s.RDDictEntries},
		{"vectors_decoded", s.VectorsDecoded},
		{"vectors_skipped", s.VectorsSkipped},
		{"decode_ns", s.DecodeNs},
		{"decode_values", s.DecodeValues},
		{"range_scans", s.RangeScans},
		{"morsel_claims", s.MorselClaims},
		{"scan_workers", s.ScanWorkers},
		{"pushdown_vectors", s.PushdownVectors},
		{"pushdown_fallbacks", s.PushdownFallbacks},
		{"selected_rows", s.SelectedRows},
		{"pipeline_workers", s.PipelineWorkers},
		{"pipeline_claims", s.PipelineClaims},
		{"pipeline_stalls", s.PipelineStalls},
		{"server_requests", s.ServerRequests},
		{"server_sheds", s.ServerSheds},
		{"server_refused", s.ServerRefused},
		{"server_bytes_in", s.ServerBytesIn},
		{"server_bytes_out", s.ServerBytesOut},
		{"server_scans", s.ServerScans},
		{"scan_frames_dense", s.ScanFramesDense},
		{"scan_frames_repacked", s.ScanFramesRepacked},
		{"scan_frames_raw", s.ScanFramesRaw},
		{"scan_bytes_saved", s.ScanBytesSaved},
		{"cluster_scatters", s.ClusterScatters},
		{"cluster_backend_calls", s.ClusterCalls},
		{"cluster_failovers", s.ClusterFailovers},
		{"cluster_partial_unavailable", s.ClusterPartial},
		{"cluster_stragglers", s.ClusterStragglers},
		{"cluster_rebalances", s.ClusterRebalances},
	}
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
