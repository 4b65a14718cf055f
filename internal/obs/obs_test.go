package obs

import (
	"encoding/json"
	"sync"
	"testing"
)

// TestNilCollectorIsSafe exercises every hook on a nil receiver: the
// nil-safe collector pattern is the contract instrumented hot paths
// rely on.
func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	c.RowGroup(true)
	c.RowGroup(false)
	c.VectorEncoded(1024, 3, 17)
	c.EncodeTime(100, 1024)
	c.SecondStage(3, true)
	c.RDSampled(16, 8)
	c.VectorDecoded(1024, 50)
	c.FlushScanBatch(&ScanBatch{Pushdown: 1, Rows: 3})
	c.ScanFrames(1, 2, 3, 4)
	c.ClusterScatter(2)
	for id := CounterID(0); id < NumCounters; id++ {
		c.Add(id, 1)
	}
	c.Reset()
	if s := c.Snapshot(); s != (Snapshot{}) {
		t.Fatalf("nil collector snapshot not zero: %+v", s)
	}
}

func TestCollectorCounts(t *testing.T) {
	c := &Collector{}
	c.RowGroup(false)
	c.RowGroup(false)
	c.RowGroup(true)
	c.VectorEncoded(1024, 2, 17)
	c.VectorEncoded(1000, 0, 17)
	c.VectorEncoded(1024, 5, WidthNone) // RD vector: no histogram entry
	c.EncodeTime(500, 3048)
	c.Add(SecondStageSkips, 1)
	c.SecondStage(3, true)
	c.SecondStage(5, false)
	c.RDSampled(16, 8)
	c.VectorDecoded(1024, 40)
	c.VectorDecoded(512, 20)
	c.Add(VectorsSkipped, 6)
	c.Add(RangeScans, 1)
	c.Add(MorselClaims, 1)
	c.Add(MorselClaims, 1)
	c.Add(ScanWorkers, 4)
	c.Add(PipelineWorkers, 2)
	c.Add(PipelineClaims, 1)
	c.Add(PipelineClaims, 1)
	c.Add(PipelineClaims, 1)
	c.Add(PipelineStalls, 1)

	s := c.Snapshot()
	if s.Counter[RowGroupsALP] != 2 || s.Counter[RowGroupsRD] != 1 {
		t.Errorf("row groups: ALP %d RD %d", s.Counter[RowGroupsALP], s.Counter[RowGroupsRD])
	}
	if s.Counter[VectorsEncoded] != 3 || s.Counter[EncodeExceptions] != 7 {
		t.Errorf("vectors encoded %d exceptions %d", s.Counter[VectorsEncoded], s.Counter[EncodeExceptions])
	}
	if s.BitWidthHist[17] != 2 {
		t.Errorf("hist[17] = %d, want 2", s.BitWidthHist[17])
	}
	for w, n := range s.BitWidthHist {
		if w != 17 && n != 0 {
			t.Errorf("hist[%d] = %d, want 0", w, n)
		}
	}
	if s.Counter[EncodeNs] != 500 || s.Counter[EncodeValues] != 3048 {
		t.Errorf("encode time %d/%d", s.Counter[EncodeNs], s.Counter[EncodeValues])
	}
	if s.Counter[SecondStageSkips] != 1 || s.Counter[SecondStageEarlyExits] != 1 || s.Counter[SecondStageTried] != 8 {
		t.Errorf("second stage: skips %d early %d tried %d",
			s.Counter[SecondStageSkips], s.Counter[SecondStageEarlyExits], s.Counter[SecondStageTried])
	}
	if s.Counter[RDSampledRowGroups] != 1 || s.Counter[RDCutsTried] != 16 || s.Counter[RDDictEntries] != 8 {
		t.Errorf("rd sampling: %d groups %d cuts %d dict",
			s.Counter[RDSampledRowGroups], s.Counter[RDCutsTried], s.Counter[RDDictEntries])
	}
	if s.Counter[VectorsDecoded] != 2 || s.Counter[DecodeValues] != 1536 || s.Counter[DecodeNs] != 60 {
		t.Errorf("decode: %d vectors %d values %d ns", s.Counter[VectorsDecoded], s.Counter[DecodeValues], s.Counter[DecodeNs])
	}
	if s.Counter[VectorsSkipped] != 6 || s.Counter[RangeScans] != 1 {
		t.Errorf("scan: %d skipped %d scans", s.Counter[VectorsSkipped], s.Counter[RangeScans])
	}
	if s.Counter[MorselClaims] != 2 || s.Counter[ScanWorkers] != 4 {
		t.Errorf("engine: %d claims %d workers", s.Counter[MorselClaims], s.Counter[ScanWorkers])
	}
	if s.Counter[PipelineWorkers] != 2 || s.Counter[PipelineClaims] != 3 || s.Counter[PipelineStalls] != 1 {
		t.Errorf("pipeline: %d workers %d claims %d stalls",
			s.Counter[PipelineWorkers], s.Counter[PipelineClaims], s.Counter[PipelineStalls])
	}

	c.Reset()
	if got := c.Snapshot(); got != (Snapshot{}) {
		t.Fatalf("Reset left counters: %+v", got)
	}
}

// TestSnapshotStringIsJSON asserts the hand-rolled expvar rendering is
// valid JSON with the expected keys.
func TestSnapshotStringIsJSON(t *testing.T) {
	c := &Collector{}
	c.VectorEncoded(1024, 1, 3)
	c.VectorDecoded(1024, 10)
	var m map[string]any
	if err := json.Unmarshal([]byte(c.Snapshot().String()), &m); err != nil {
		t.Fatalf("Snapshot.String() is not valid JSON: %v\n%s", err, c.Snapshot().String())
	}
	for _, key := range []string{"row_groups_alp", "vectors_encoded", "vectors_decoded",
		"vectors_skipped", "morsel_claims", "bit_width_hist",
		"pipeline_workers", "pipeline_claims", "pipeline_stalls"} {
		if _, ok := m[key]; !ok {
			t.Errorf("key %q missing from snapshot JSON", key)
		}
	}
	if hist, ok := m["bit_width_hist"].([]any); !ok || len(hist) != MaxBitWidth+1 {
		t.Errorf("bit_width_hist malformed: %v", m["bit_width_hist"])
	}
}

func TestEnableDisable(t *testing.T) {
	defer Disable()
	Disable()
	if Active() != nil {
		t.Fatal("Active() != nil after Disable")
	}
	c := Enable()
	if c == nil || Active() != c {
		t.Fatal("Enable did not install a collector")
	}
	if again := Enable(); again != c {
		t.Fatal("Enable is not idempotent")
	}
	Disable()
	if Active() != nil {
		t.Fatal("Disable did not clear the collector")
	}
}

// TestConcurrentCounting hammers one collector from many goroutines;
// with -race this validates the atomic-counter contract end to end.
func TestConcurrentCounting(t *testing.T) {
	c := &Collector{}
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.VectorDecoded(1024, 1)
				c.Add(MorselClaims, 1)
				c.VectorEncoded(1024, 1, 12)
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.Counter[VectorsDecoded] != workers*per || s.Counter[MorselClaims] != workers*per ||
		s.Counter[VectorsEncoded] != workers*per || s.BitWidthHist[12] != workers*per {
		t.Fatalf("lost updates: %+v", s)
	}
}
