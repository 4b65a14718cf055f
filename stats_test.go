package alp

import (
	"encoding/json"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/goalp/alp/internal/dataset"
)

// withStats runs fn with global metrics collection enabled and freshly
// zeroed, restoring the disabled state afterwards so other tests see
// the default configuration.
func withStats(t *testing.T, fn func()) {
	t.Helper()
	EnableStats()
	ResetStats()
	defer DisableStats()
	fn()
}

// decimalColumn builds nVec vectors of clean decimal values in disjoint
// per-vector bands (vector v holds 1000*v + small decimals), so scheme
// choice, exception counts and zone-map behaviour are all exactly
// predictable.
func decimalColumn(nVec int) []float64 {
	values := make([]float64, nVec*VectorSize)
	for i := range values {
		values[i] = float64(i/VectorSize)*1000 + float64(i%7)/100
	}
	return values
}

func TestStatsEncodeCounts(t *testing.T) {
	withStats(t, func() {
		values := decimalColumn(3) // 3 vectors, 1 row-group
		Encode(values)
		s := ReadStats()
		if s.RowGroupsALP != 1 || s.RowGroupsRD != 0 {
			t.Fatalf("row groups ALP/RD = %d/%d, want 1/0", s.RowGroupsALP, s.RowGroupsRD)
		}
		if s.VectorsEncoded != 3 {
			t.Fatalf("VectorsEncoded = %d, want 3", s.VectorsEncoded)
		}
		if s.EncodeExceptions != 0 {
			t.Fatalf("EncodeExceptions = %d, want 0", s.EncodeExceptions)
		}
		if s.EncodeValues != int64(len(values)) {
			t.Fatalf("EncodeValues = %d, want %d", s.EncodeValues, len(values))
		}
		if s.EncodeNs <= 0 {
			t.Fatalf("EncodeNs = %d, want > 0", s.EncodeNs)
		}
		// Every encoded decimal vector lands in the bit-width histogram.
		var hist int64
		for _, n := range s.BitWidthHist {
			hist += n
		}
		if hist != 3 {
			t.Fatalf("bit-width histogram holds %d vectors, want 3", hist)
		}
		// Second-stage accounting covers every vector exactly once.
		if got := s.SecondStageSkips + secondStageRuns(s); got != 3 {
			t.Fatalf("second-stage skips+runs = %d, want 3", got)
		}
	})
}

// TestStats32EncodeCounts asserts the float32 encode path feeds the
// same collector hooks as the 64-bit one.
func TestStats32EncodeCounts(t *testing.T) {
	withStats(t, func() {
		values := make([]float32, 3*VectorSize)
		for i := range values {
			values[i] = float32(i%1000) / 10
		}
		data := Encode32(values)
		s := ReadStats()
		if s.RowGroupsALP != 1 || s.RowGroupsRD != 0 {
			t.Fatalf("row groups ALP/RD = %d/%d, want 1/0", s.RowGroupsALP, s.RowGroupsRD)
		}
		if s.VectorsEncoded != 3 {
			t.Fatalf("VectorsEncoded = %d, want 3", s.VectorsEncoded)
		}
		if s.EncodeValues != int64(len(values)) {
			t.Fatalf("EncodeValues = %d, want %d", s.EncodeValues, len(values))
		}
		ResetStats()
		if _, err := Decode32(data); err != nil {
			t.Fatal(err)
		}
		s = ReadStats()
		if s.VectorsDecoded != 3 || s.DecodeValues != int64(len(values)) {
			t.Fatalf("decoded vectors/values = %d/%d, want 3/%d",
				s.VectorsDecoded, s.DecodeValues, len(values))
		}
	})
}

// secondStageRuns derives how many vectors ran second-stage sampling:
// each run tries at least one candidate, and skipped vectors try none,
// so runs = vectors encoded in decimal scheme minus skips.
func secondStageRuns(s Stats) int64 {
	runs := s.VectorsEncoded - s.SecondStageSkips
	if runs < 0 {
		return 0
	}
	return runs
}

func TestStatsRDFallbackCounts(t *testing.T) {
	withStats(t, func() {
		// Full-mantissa random values defeat the decimal scheme: the
		// row-group must fall back to ALP_rd and report its sampling, at
		// both widths (16 cut positions each).
		r := rand.New(rand.NewSource(7))
		values := make([]float64, 2*VectorSize)
		for i := range values {
			values[i] = r.NormFloat64()
		}
		values32 := make([]float32, 2*VectorSize)
		for i := range values32 {
			values32[i] = float32(r.NormFloat64())
		}
		for _, width := range []string{"float64", "float32"} {
			ResetStats()
			var usedRD bool
			if width == "float64" {
				usedRD = Compress(values).UsedRD()
			} else {
				usedRD = Compress32(values32).UsedRD()
			}
			if !usedRD {
				t.Fatalf("%s: random data encoded as decimals", width)
			}
			s := ReadStats()
			if s.RowGroupsRD != 1 || s.RowGroupsALP != 0 {
				t.Fatalf("%s: row groups ALP/RD = %d/%d, want 0/1", width, s.RowGroupsALP, s.RowGroupsRD)
			}
			if s.VectorsEncoded != 2 {
				t.Fatalf("%s: VectorsEncoded = %d, want 2", width, s.VectorsEncoded)
			}
			if s.RDSampledRowGroups != 1 || s.RDCutsTried != 16 {
				t.Fatalf("%s: RD sampling: %d groups, %d cuts, want 1 and 16",
					width, s.RDSampledRowGroups, s.RDCutsTried)
			}
			// RD vectors must not pollute the FFOR bit-width histogram.
			for w, n := range s.BitWidthHist {
				if n != 0 {
					t.Fatalf("%s: hist[%d] = %d, want empty histogram for RD-only column", width, w, n)
				}
			}
		}
	})
}

// TestStatsPipelineCounts asserts the worker-pool hooks thread through
// to the public Stats: a parallel encode over g row-groups reports g
// claims and the spawned worker count, and the parallel decode adds the
// same again.
func TestStatsPipelineCounts(t *testing.T) {
	withStats(t, func() {
		values := decimalColumn(2*RowGroupSize/VectorSize + 1) // 3 row-groups
		data := EncodeParallel(values, 2)
		s := ReadStats()
		if s.PipelineWorkers != 2 {
			t.Fatalf("PipelineWorkers = %d, want 2", s.PipelineWorkers)
		}
		if s.PipelineClaims != 3 {
			t.Fatalf("PipelineClaims = %d, want 3 (one per row-group)", s.PipelineClaims)
		}

		ResetStats()
		if _, err := DecodeParallel(data, 2); err != nil {
			t.Fatal(err)
		}
		s = ReadStats()
		if s.PipelineWorkers != 2 || s.PipelineClaims != 3 {
			t.Fatalf("decode pipeline workers/claims = %d/%d, want 2/3",
				s.PipelineWorkers, s.PipelineClaims)
		}

		// The serial path spawns no pool at all.
		ResetStats()
		EncodeParallel(values, 1)
		if s := ReadStats(); s.PipelineWorkers != 0 || s.PipelineClaims != 0 {
			t.Fatalf("serial encode touched pipeline counters: %+v", s)
		}
	})
}

func TestStatsSumRangeSkipCounts(t *testing.T) {
	withStats(t, func() {
		values := decimalColumn(5)
		col := Compress(values)
		ResetStats() // isolate the scan-side counters

		// The predicate selects exactly vector 2's band (values in
		// [2000, 2000.06]); zone maps must prune the other four vectors.
		sum, count, touched := col.SumRange(2000, 2000.07)
		if touched != 1 || count != VectorSize {
			t.Fatalf("touched %d count %d, want 1 and %d", touched, count, VectorSize)
		}
		var want float64
		for i := 2 * VectorSize; i < 3*VectorSize; i++ {
			want += values[i]
		}
		if math.Abs(sum-want) > 1e-9 {
			t.Fatalf("sum = %v, want %v", sum, want)
		}

		s := ReadStats()
		if s.RangeScans != 1 {
			t.Fatalf("RangeScans = %d, want 1", s.RangeScans)
		}
		if s.VectorsDecoded != 1 {
			t.Fatalf("VectorsDecoded = %d, want 1", s.VectorsDecoded)
		}
		if s.VectorsSkipped != 4 {
			t.Fatalf("VectorsSkipped = %d, want 4", s.VectorsSkipped)
		}
		if got := s.SkipRate(); got != 0.8 {
			t.Fatalf("SkipRate = %v, want 0.8", got)
		}
		if s.DecodeValues != VectorSize {
			t.Fatalf("DecodeValues = %d, want %d", s.DecodeValues, VectorSize)
		}
	})
}

// A predicate that straddles a vector's zone range is answered in the
// encoded domain: the vector counts as examined and as a pushdown
// vector, but it is never decompressed, so it does not enter SkipRate.
func TestStatsSumRangeStraddlingCounts(t *testing.T) {
	withStats(t, func() {
		values := decimalColumn(5)
		col := Compress(values)
		ResetStats()

		lo, hi := 2000.02, 2000.04
		sum, count, touched := col.SumRange(lo, hi)
		var want float64
		wantCount := 0
		for _, v := range values {
			if v >= lo && v <= hi {
				want += v
				wantCount++
			}
		}
		if touched != 1 || count != wantCount || math.Float64bits(sum) != math.Float64bits(want) {
			t.Fatalf("SumRange = (%v, %d, %d), want (%v, %d, 1)", sum, count, touched, want, wantCount)
		}

		s := ReadStats()
		if s.VectorsSkipped != 4 || s.VectorsDecoded != 0 || s.DecodeValues != 0 {
			t.Fatalf("skipped %d decoded %d (%d values), want 4, 0 and 0",
				s.VectorsSkipped, s.VectorsDecoded, s.DecodeValues)
		}
		if s.PushdownVectors != 1 || s.PushdownFallbacks != 0 || s.SelectedRows != int64(wantCount) {
			t.Fatalf("pushdown %d fallbacks %d selected %d, want 1, 0 and %d",
				s.PushdownVectors, s.PushdownFallbacks, s.SelectedRows, wantCount)
		}
		if got := s.SkipRate(); got != 1 {
			t.Fatalf("SkipRate = %v, want 1 (no vector was decompressed)", got)
		}
	})
}

func TestStatsDisabledIsZero(t *testing.T) {
	DisableStats()
	ResetStats() // must be a safe no-op with collection off
	Encode(decimalColumn(2))
	if s := ReadStats(); s != (Stats{}) {
		t.Fatalf("stats collected while disabled: %+v", s)
	}
	if StatsEnabled() {
		t.Fatal("StatsEnabled() = true, want false")
	}
}

func TestStatsStringIsExpvarJSON(t *testing.T) {
	withStats(t, func() {
		Encode(decimalColumn(2))
		var m map[string]any
		if err := json.Unmarshal([]byte(ReadStats().String()), &m); err != nil {
			t.Fatalf("Stats.String() is not valid JSON: %v", err)
		}
		if m["vectors_encoded"].(float64) != 2 {
			t.Fatalf("vectors_encoded = %v, want 2", m["vectors_encoded"])
		}
	})
}

// TestMetricsJSONIncludesLiveHistograms guards the /metrics path used
// by alpbench: a Stats value carries only the counters, so rendering
// ReadStats().String() silently zeroes every lat_*/stage_* key.
// MetricsJSON must read the live collector and include real histogram
// samples alongside the counters.
func TestMetricsJSONIncludesLiveHistograms(t *testing.T) {
	withStats(t, func() {
		Encode(decimalColumn(2))
		var m map[string]any
		if err := json.Unmarshal([]byte(MetricsJSON()), &m); err != nil {
			t.Fatalf("MetricsJSON() is not valid JSON: %v", err)
		}
		if m["vectors_encoded"].(float64) != 2 {
			t.Fatalf("vectors_encoded = %v, want 2", m["vectors_encoded"])
		}
		if m["stage_encode_count"].(float64) == 0 {
			t.Fatal("stage_encode_count = 0: MetricsJSON dropped the live histograms")
		}
		if m["stage_encode_p50_ns"].(float64) <= 0 {
			t.Fatalf("stage_encode_p50_ns = %v, want > 0", m["stage_encode_p50_ns"])
		}
	})
	DisableStats()
	var m map[string]any
	if err := json.Unmarshal([]byte(MetricsJSON()), &m); err != nil {
		t.Fatalf("disabled MetricsJSON() is not valid JSON: %v", err)
	}
}

func TestColumnStats(t *testing.T) {
	values := decimalColumn(3)
	col := Compress(values)
	info, err := ColumnStats(col.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if info.Values != len(values) || info.NumVectors != 3 || info.NumRowGroups != 1 {
		t.Fatalf("layout: %d values %d vectors %d row-groups",
			info.Values, info.NumVectors, info.NumRowGroups)
	}
	if info.UsedRD {
		t.Fatal("UsedRD = true for decimal column")
	}
	if !info.HasZoneMap {
		t.Fatal("HasZoneMap = false, want true")
	}
	if info.Exceptions != col.Exceptions() {
		t.Fatalf("Exceptions = %d, want %d", info.Exceptions, col.Exceptions())
	}
	if info.BitsPerValue != col.BitsPerValue() {
		t.Fatalf("BitsPerValue = %v, want %v", info.BitsPerValue, col.BitsPerValue())
	}

	rg := info.RowGroups[0]
	if rg.Scheme != SchemeALP || rg.Start != 0 || rg.Values != len(values) {
		t.Fatalf("row-group 0: %+v", rg)
	}
	if len(rg.Combos) == 0 {
		t.Fatal("row-group 0 has no sampled combos")
	}
	if len(rg.Vectors) != 3 {
		t.Fatalf("row-group 0 has %d vectors, want 3", len(rg.Vectors))
	}
	sumBits, sumExc := 0, 0
	for i, v := range rg.Vectors {
		if v.Index != i {
			t.Fatalf("vector %d has index %d", i, v.Index)
		}
		if v.Values != VectorSize {
			t.Fatalf("vector %d has %d values", i, v.Values)
		}
		if v.F > v.E {
			t.Fatalf("vector %d combo (%d, %d) invalid", i, v.E, v.F)
		}
		if v.BitWidth > 64 {
			t.Fatalf("vector %d width %d", i, v.BitWidth)
		}
		sumBits += v.CompressedBits
		sumExc += v.Exceptions
	}
	if sumExc != rg.Exceptions {
		t.Fatalf("vector exceptions sum %d != row-group %d", sumExc, rg.Exceptions)
	}
	if sumBits > rg.CompressedBits {
		t.Fatalf("vector bits %d exceed row-group bits %d", sumBits, rg.CompressedBits)
	}

	// Info() on the in-memory column additionally carries the sampling
	// telemetry that the serialized stream does not.
	mem := Compress(values).Info()
	if len(mem.RowGroups[0].SecondStageTried) != 3 {
		t.Fatalf("SecondStageTried = %v, want 3 entries", mem.RowGroups[0].SecondStageTried)
	}
}

func TestColumnStatsRD(t *testing.T) {
	d, _ := dataset.ByName("POI-lat")
	values := d.Generate(2 * VectorSize)
	col := Compress(values)
	if !col.UsedRD() {
		t.Skip("POI-lat unexpectedly encoded as decimals")
	}
	info := col.Info()
	rg := info.RowGroups[0]
	if rg.Scheme != SchemeRD {
		t.Fatalf("scheme = %v, want ALP_rd", rg.Scheme)
	}
	if rg.CutPosition < 48 || rg.CutPosition > 63 {
		t.Fatalf("cut position %d out of [48, 63]", rg.CutPosition)
	}
	if rg.DictSize < 1 || rg.DictSize > 8 {
		t.Fatalf("dict size %d out of [1, 8]", rg.DictSize)
	}
	for _, v := range rg.Vectors {
		if want := uint(rg.CutPosition) + rg.CodeWidth; v.BitWidth != want {
			t.Fatalf("RD vector width %d, want %d", v.BitWidth, want)
		}
	}
}

func TestColumnStatsRejectsCorrupt(t *testing.T) {
	if _, err := ColumnStats([]byte("junk")); err == nil {
		t.Fatal("want error on garbage stream")
	}
}

func TestSchemeAccessors(t *testing.T) {
	col := Compress(decimalColumn(2))
	if col.NumRowGroups() != 1 {
		t.Fatalf("NumRowGroups = %d, want 1", col.NumRowGroups())
	}
	s, err := col.Scheme(0)
	if err != nil || s != SchemeALP {
		t.Fatalf("Scheme(0) = %v, %v", s, err)
	}
	if s.String() != "ALP" || SchemeRD.String() != "ALP_rd" {
		t.Fatalf("scheme names: %q, %q", s.String(), SchemeRD.String())
	}
	if _, err := col.Scheme(1); err == nil {
		t.Fatal("Scheme(1) out of range must error")
	}
	if _, err := col.Scheme(-1); err == nil {
		t.Fatal("Scheme(-1) must error")
	}
	if col.Exceptions() != 0 {
		t.Fatalf("Exceptions = %d, want 0 for clean decimals", col.Exceptions())
	}

	// An exception-bearing column reports them through the public API.
	values := decimalColumn(1)
	values[10] = math.Pi // full-mantissa value: certain exception
	col = Compress(values)
	if got, _ := col.Scheme(0); got == SchemeALP && col.Exceptions() == 0 {
		t.Fatal("math.Pi did not surface as an exception")
	}
}

// TestReadVectorInto checks the caller-owned-scratch access path,
// including the documented concurrent use of one shared Column.
func TestReadVectorInto(t *testing.T) {
	d, _ := dataset.ByName("Stocks-USA")
	values := d.Generate(4 * VectorSize)
	col, err := Open(Encode(values))
	if err != nil {
		t.Fatal(err)
	}

	// Sequential: matches ReadVector.
	want := make([]float64, VectorSize)
	got := make([]float64, VectorSize)
	scratch := make([]int64, VectorSize)
	for i := 0; i < col.NumVectors(); i++ {
		wn, err := col.ReadVector(i, want)
		if err != nil {
			t.Fatal(err)
		}
		gn, err := col.ReadVectorInto(i, got, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if gn != wn {
			t.Fatalf("vector %d: %d values, want %d", i, gn, wn)
		}
		for j := 0; j < gn; j++ {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("vector %d value %d differs", i, j)
			}
		}
	}

	// nil scratch allocates per call; short scratch errors.
	if _, err := col.ReadVectorInto(0, got, nil); err != nil {
		t.Fatalf("nil scratch: %v", err)
	}
	if _, err := col.ReadVectorInto(0, got, make([]int64, 8)); err == nil {
		t.Fatal("short scratch must error")
	}
	if _, err := col.ReadVectorInto(-1, got, scratch); err == nil {
		t.Fatal("negative index must error")
	}
	if _, err := col.ReadVectorInto(col.NumVectors(), got, scratch); err == nil {
		t.Fatal("out-of-range index must error")
	}

	// Concurrent: one shared Column, per-goroutine dst+scratch. Run
	// with -race this validates the documented contract.
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]float64, VectorSize)
			scr := make([]int64, VectorSize)
			for i := 0; i < col.NumVectors(); i++ {
				n, err := col.ReadVectorInto(i, dst, scr)
				if err != nil {
					errs <- err
					return
				}
				lo := i * VectorSize
				for j := 0; j < n; j++ {
					if math.Float64bits(dst[j]) != math.Float64bits(values[lo+j]) {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
