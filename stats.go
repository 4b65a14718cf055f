package alp

import (
	"fmt"
	"reflect"

	"github.com/goalp/alp/internal/format"
	"github.com/goalp/alp/internal/obs"
)

// ---- runtime metrics (process-wide counters) ----

// Stats is a point-in-time snapshot of the codec-wide runtime metrics:
// every adaptive decision ALP makes while encoding, decoding and
// scanning. Collection is off by default; call EnableStats to start
// counting. All fields are plain values — a Stats is safe to copy,
// compare and serialize (its exported fields make it directly usable
// with expvar.Func).
//
// Each counter field's metric tag names the /metrics key it carries;
// the tags are the only link between the fields and the collector.
type Stats struct {
	// Encode side.
	RowGroupsALP     int64 `metric:"row_groups_alp"`    // row-groups encoded with the decimal scheme
	RowGroupsRD      int64 `metric:"row_groups_rd"`     // row-groups that fell back to ALP_rd
	VectorsEncoded   int64 `metric:"vectors_encoded"`   // vectors encoded (both schemes)
	EncodeExceptions int64 `metric:"encode_exceptions"` // exception slots written during encode
	EncodeNs         int64 `metric:"encode_ns"`         // wall ns spent encoding row-groups
	EncodeValues     int64 `metric:"encode_values"`     // values encoded

	// Second-stage sampling (per-vector (e,f) choice).
	SecondStageSkips      int64 `metric:"second_stage_skips"`       // vectors that needed no sampling (1 candidate)
	SecondStageEarlyExits int64 `metric:"second_stage_early_exits"` // greedy searches that exited early
	SecondStageTried      int64 `metric:"second_stage_tried"`       // candidate combinations evaluated
	RDSampledRowGroups    int64 `metric:"rd_sampled_row_groups"`    // row-groups that ran ALP_rd sampling
	RDCutsTried           int64 `metric:"rd_cuts_tried"`            // ALP_rd cut positions evaluated
	RDDictEntries         int64 `metric:"rd_dict_entries"`          // ALP_rd dictionary entries chosen

	// BitWidthHist[w] counts encoded decimal-scheme vectors whose FFOR
	// payload packed at w bits per value (w in 0..64).
	BitWidthHist [65]int64

	// Decode / scan side.
	VectorsDecoded int64 `metric:"vectors_decoded"` // vectors decompressed (any access path)
	VectorsSkipped int64 `metric:"vectors_skipped"` // vectors pruned by zone-map push-down
	DecodeNs       int64 `metric:"decode_ns"`       // wall ns spent decompressing vectors (incl. the integer fold of a wholly matching vector)
	DecodeValues   int64 `metric:"decode_values"`   // values decompressed
	RangeScans     int64 `metric:"range_scans"`     // SumRange scans executed
	MorselClaims   int64 `metric:"morsel_claims"`   // partitions claimed by parallel engine scans
	ScanWorkers    int64 `metric:"scan_workers"`    // worker goroutines launched by parallel engine scans

	// Encoded-domain predicate pushdown (filtered scans).
	PushdownVectors   int64 `metric:"pushdown_vectors"`   // vectors filtered by the fused unpack+compare kernel
	PushdownFallbacks int64 `metric:"pushdown_fallbacks"` // filtered-scan vectors that decoded to floats instead
	SelectedRows      int64 `metric:"selected_rows"`      // rows qualifying under pushed-down predicates

	// Encode/decode pipeline (the worker pool behind EncodeParallel,
	// DecodeParallel and NewWriterParallel).
	PipelineWorkers int64 `metric:"pipeline_workers"` // pipeline worker goroutines spawned
	PipelineClaims  int64 `metric:"pipeline_claims"`  // row-groups claimed by pipeline workers
	PipelineStalls  int64 `metric:"pipeline_stalls"`  // submissions that blocked on a full window

	// Column service (alpserved / internal/server). Request durations
	// live in the latency histograms (ReadLatencies / the /metrics
	// lat_* keys), not here.
	ServerRequests int64 `metric:"server_requests"`  // HTTP requests admitted by the service
	ServerSheds    int64 `metric:"server_sheds"`     // requests shed with 429 by the concurrency limiter
	ServerRefused  int64 `metric:"server_refused"`   // requests refused with 503 while draining
	ServerBytesIn  int64 `metric:"server_bytes_in"`  // request payload bytes read (ingest)
	ServerBytesOut int64 `metric:"server_bytes_out"` // response payload bytes written
	ServerScans    int64 `metric:"server_scans"`     // scan/agg/count requests served

	// Selection-aware scan wire format (application/x-alp-scan).
	ScanFramesDense    int64 `metric:"scan_frames_dense"`    // frames shipped as stored envelope + bitmap
	ScanFramesRepacked int64 `metric:"scan_frames_repacked"` // frames shipped as re-packed ALP vectors
	ScanFramesRaw      int64 `metric:"scan_frames_raw"`      // frames that fell back to raw float64 rows
	ScanBytesSaved     int64 `metric:"scan_bytes_saved"`     // wire bytes saved vs the raw-float64 floor

	// Scatter-gather coordinator (alpclusterd / internal/cluster).
	ClusterScatters   int64 `metric:"cluster_scatters"`            // scatter fan-outs executed (one per clustered query)
	ClusterCalls      int64 `metric:"cluster_backend_calls"`       // backend calls issued by scatters
	ClusterFailovers  int64 `metric:"cluster_failovers"`           // row-group groups re-fetched from a replica
	ClusterPartial    int64 `metric:"cluster_partial_unavailable"` // queries failed typed partial-unavailable
	ClusterStragglers int64 `metric:"cluster_stragglers"`          // scatters whose slowest backend took over twice the fastest
	ClusterRebalances int64 `metric:"cluster_rebalances"`          // row-group range moves completed
}

// EnableStats turns on global metrics collection. Instrumented hot
// paths switch from a single nil-check branch to atomic counter
// updates. Idempotent.
func EnableStats() { obs.Enable() }

// DisableStats turns off global metrics collection.
func DisableStats() { obs.Disable() }

// ResetStats zeroes all counters (no-op when collection is disabled).
func ResetStats() { obs.Active().Reset() }

// StatsEnabled reports whether metrics collection is active.
func StatsEnabled() bool { return obs.Active() != nil }

// ReadStats snapshots the current counters. With collection disabled it
// returns a zero Stats.
func ReadStats() Stats {
	snap := obs.Active().Snapshot()
	s := Stats{BitWidthHist: snap.BitWidthHist}
	s.eachCounter(func(f reflect.Value, id obs.CounterID) { f.SetInt(snap.Counter[id]) })
	return s
}

// statsCounter pairs a metric-tagged Stats field (by index) with its
// counter.
type statsCounter struct {
	field int
	id    obs.CounterID
}

// statsCounters lists every metric-tagged Stats field. A tag naming no
// counter is a bug in this file, so it panics at start-up.
var statsCounters = func() (out []statsCounter) {
	t := reflect.TypeOf(Stats{})
	for i := 0; i < t.NumField(); i++ {
		name, ok := t.Field(i).Tag.Lookup("metric")
		if !ok {
			continue
		}
		id := obs.CounterID(0)
		for id < obs.NumCounters && obs.CounterName(id) != name {
			id++
		}
		if id == obs.NumCounters {
			panic("alp: Stats." + t.Field(i).Name + " tags unknown metric " + name)
		}
		out = append(out, statsCounter{i, id})
	}
	return out
}()

// eachCounter calls fn with every metric-tagged field of s and its
// counter: the one copy loop between Stats and the collector's
// snapshot, behind ReadStats and String.
func (s *Stats) eachCounter(fn func(field reflect.Value, id obs.CounterID)) {
	v := reflect.ValueOf(s).Elem()
	for _, p := range statsCounters {
		fn(v.Field(p.field), p.id)
	}
}

// EncodeNsPerValue returns the average encode cost in ns per value.
func (s Stats) EncodeNsPerValue() float64 {
	if s.EncodeValues == 0 {
		return 0
	}
	return float64(s.EncodeNs) / float64(s.EncodeValues)
}

// DecodeNsPerValue returns the average decode cost in ns per value.
func (s Stats) DecodeNsPerValue() float64 {
	if s.DecodeValues == 0 {
		return 0
	}
	return float64(s.DecodeNs) / float64(s.DecodeValues)
}

// PushdownRate returns the fraction of filtered-scan vectors answered
// by the encoded-domain kernel rather than decode-then-filter.
func (s Stats) PushdownRate() float64 {
	total := s.PushdownVectors + s.PushdownFallbacks
	if total == 0 {
		return 0
	}
	return float64(s.PushdownVectors) / float64(total)
}

// SkipRate returns the fraction of scan vectors pruned by zone maps,
// out of those pruned or decompressed. A vector a filtered scan answers
// in the encoded domain without decompressing it counts in neither, so
// a selective SumRange or AggRange can report a rate of 1.
func (s Stats) SkipRate() float64 {
	total := s.VectorsDecoded + s.VectorsSkipped
	if total == 0 {
		return 0
	}
	return float64(s.VectorsSkipped) / float64(total)
}

// String renders the snapshot as JSON, so a Stats value satisfies
// expvar.Var and can be published with expvar.Publish without pulling
// expvar (and its /debug/vars side effect) into this package.
//
// A Stats holds only the counters, so the lat_*/stage_* histogram keys
// render as zero here; use MetricsJSON for the full picture.
func (s Stats) String() string {
	snap := obs.Snapshot{BitWidthHist: s.BitWidthHist}
	s.eachCounter(func(f reflect.Value, id obs.CounterID) { snap.Counter[id] = f.Int() })
	return snap.String()
}

// MetricsJSON renders the complete live metrics snapshot — counters
// plus the latency histograms' flat lat_*/stage_* quantile keys — as
// the JSON object served by /metrics endpoints. With collection
// disabled it returns an all-zero snapshot.
func MetricsJSON() string {
	return obs.Active().Snapshot().String()
}

// LatencyStats summarizes one latency distribution tracked by the
// collector: a server endpoint (lat_*) or an engine stage (stage_*).
// All durations are nanoseconds; quantiles are log-bucket estimates
// (exact to within 2x, clamped to the observed max).
type LatencyStats struct {
	Name  string
	Count int64
	SumNs int64
	P50   int64
	P95   int64
	P99   int64
	Max   int64
}

// ReadLatencies snapshots every latency histogram, in stable order.
// With collection disabled it returns all-zero entries.
func ReadLatencies() []LatencyStats {
	snap := obs.Active().Snapshot()
	out := make([]LatencyStats, obs.NumHists)
	for i := range out {
		h := snap.Hists[i]
		out[i] = LatencyStats{
			Name:  obs.HistName(obs.HistID(i)),
			Count: h.Count,
			SumNs: h.SumNs,
			P50:   h.P50(),
			P95:   h.P95(),
			P99:   h.P99(),
			Max:   h.MaxNs,
		}
	}
	return out
}

// ---- per-column static introspection ----

// Scheme identifies the encoding of a row-group.
type Scheme uint8

const (
	// SchemeALP is the decimal encoding (paper §3.1).
	SchemeALP = Scheme(format.SchemeALP)
	// SchemeRD is the real-double fallback encoding (paper §3.4).
	SchemeRD = Scheme(format.SchemeRD)
)

func (s Scheme) String() string { return format.Scheme(s).String() }

// ComboInfo is one sampled (exponent, factor) combination.
type ComboInfo struct {
	E, F uint8
}

// VectorInfo describes one compressed vector.
type VectorInfo struct {
	Index  int // global vector index within the column
	Values int

	// Decimal scheme: the (e, f) combination chosen by second-stage
	// sampling and the FFOR bit width. For ALP_rd vectors E and F are
	// zero and BitWidth is the right-part width plus the dictionary
	// code width (the per-value payload bits).
	E, F     uint8
	BitWidth uint

	Exceptions     int
	CompressedBits int
}

// RowGroupInfo describes one compressed row-group: the adaptive
// decisions first-level sampling made for it and its per-vector layout.
type RowGroupInfo struct {
	Index  int
	Start  int // index of the first value
	Values int
	Scheme Scheme

	// Decimal scheme: the k best (e,f) candidates kept by first-level
	// sampling, and per-vector second-stage effort (candidates tried;
	// 0 = sampling skipped). SecondStageTried is only populated for
	// freshly encoded columns — it is sampling telemetry, not part of
	// the serialized format.
	Combos           []ComboInfo
	SecondStageTried []int

	// ALP_rd scheme: cut position, dictionary code width and size.
	CutPosition uint8
	CodeWidth   uint
	DictSize    int

	Vectors        []VectorInfo
	Exceptions     int
	CompressedBits int
}

// ColumnInfo is a deep-introspection report of one compressed column:
// every per-row-group and per-vector decision the adaptive encoder
// made, reconstructed from the compressed representation itself. It is
// what `alpfile inspect` prints.
type ColumnInfo struct {
	Values         int
	NumVectors     int
	NumRowGroups   int
	RowGroups      []RowGroupInfo
	Exceptions     int
	CompressedBits int
	BitsPerValue   float64
	UsedRD         bool
	HasZoneMap     bool
}

// ColumnStats parses a compressed stream and returns its introspection
// report without decompressing any values.
func ColumnStats(data []byte) (*ColumnInfo, error) {
	col, err := format.Unmarshal(data)
	if err != nil {
		return nil, err
	}
	return buildColumnInfo(col), nil
}

// Info returns the introspection report for the column.
func (c *Column) Info() *ColumnInfo { return buildColumnInfo(c.col) }

func buildColumnInfo(col *format.Column) *ColumnInfo {
	info := &ColumnInfo{
		Values:         col.N,
		NumVectors:     col.NumVectors(),
		NumRowGroups:   len(col.RowGroups),
		CompressedBits: col.SizeBits(),
		BitsPerValue:   col.BitsPerValue(),
		UsedRD:         col.UsedRD(),
		HasZoneMap:     col.Zones != nil,
	}
	vecIndex := 0
	for g := range col.RowGroups {
		rg := &col.RowGroups[g]
		ri := RowGroupInfo{
			Index:          g,
			Start:          rg.Start,
			Values:         rg.N,
			Scheme:         Scheme(rg.Scheme),
			CompressedBits: rg.SizeBits(),
		}
		if rg.Scheme == format.SchemeRD {
			ri.CutPosition = rg.RD.P
			ri.CodeWidth = rg.RD.CodeWidth
			ri.DictSize = len(rg.RD.Dict)
			for j := range rg.RDVectors {
				v := &rg.RDVectors[j]
				ri.Vectors = append(ri.Vectors, VectorInfo{
					Index:          vecIndex,
					Values:         v.N,
					BitWidth:       uint(rg.RD.P) + rg.RD.CodeWidth,
					Exceptions:     v.Exceptions(),
					CompressedBits: rg.RD.SizeBits(v),
				})
				ri.Exceptions += v.Exceptions()
				vecIndex++
			}
		} else {
			for _, cb := range rg.Combos {
				ri.Combos = append(ri.Combos, ComboInfo{E: cb.E, F: cb.F})
			}
			ri.SecondStageTried = append([]int(nil), rg.SecondStageTried...)
			for j := range rg.Vectors {
				v := &rg.Vectors[j]
				ri.Vectors = append(ri.Vectors, VectorInfo{
					Index:          vecIndex,
					Values:         v.N,
					E:              v.E,
					F:              v.F,
					BitWidth:       v.Ints.Width,
					Exceptions:     v.Exceptions(),
					CompressedBits: v.SizeBits(),
				})
				ri.Exceptions += v.Exceptions()
				vecIndex++
			}
		}
		info.Exceptions += ri.Exceptions
		info.RowGroups = append(info.RowGroups, ri)
	}
	return info
}

// Summary returns a one-line description of the column, suitable for
// logs: value count, bits/value, scheme mix and exception total.
func (ci *ColumnInfo) Summary() string {
	alpGroups, rdGroups := 0, 0
	for i := range ci.RowGroups {
		if ci.RowGroups[i].Scheme == SchemeRD {
			rdGroups++
		} else {
			alpGroups++
		}
	}
	return fmt.Sprintf("%d values, %.2f bits/value, %d row-groups (%d ALP, %d ALP_rd), %d exceptions",
		ci.Values, ci.BitsPerValue, ci.NumRowGroups, alpGroups, rdGroups, ci.Exceptions)
}
