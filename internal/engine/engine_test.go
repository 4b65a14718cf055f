package engine

import (
	"math"
	"testing"

	"github.com/goalp/alp/internal/dataset"
	"github.com/goalp/alp/internal/gorilla"
	"github.com/goalp/alp/internal/obs"
	"github.com/goalp/alp/internal/patas"
	"github.com/goalp/alp/internal/vector"
)

func testValues(n int) []float64 {
	d, _ := dataset.ByName("City-Temp")
	return d.Generate(n)
}

// naiveSum sums values in the fold order: each row-group from zero in
// index order, the row-group sums in order.
func naiveSum(values []float64) float64 {
	var total float64
	for lo := 0; lo < len(values); lo += vector.RowGroupSize {
		var s float64
		for _, v := range values[lo:min(lo+vector.RowGroupSize, len(values))] {
			s += v
		}
		total += s
	}
	return total
}

func TestScanCountsAllTuples(t *testing.T) {
	values := testValues(2*vector.RowGroupSize + 999)
	for _, threads := range []int{1, 4} {
		for _, r := range []*Relation{
			BuildALP(values),
			BuildUncompressed(values),
			BuildStream("Gorilla", values, gorilla.Compress, gorilla.Decompress),
		} {
			if got := r.Scan(threads); got != len(values) {
				t.Fatalf("%s scan(%d) = %d tuples, want %d", r.Name, threads, got, len(values))
			}
		}
	}
}

func TestSumMatchesNaive(t *testing.T) {
	values := testValues(vector.RowGroupSize + 4321)
	want := naiveSum(values)
	rels := []*Relation{
		BuildALP(values),
		BuildUncompressed(values),
		BuildStream("Patas", values, patas.Compress, patas.Decompress),
	}
	for _, r := range rels {
		for _, threads := range []int{1, 2, 8} {
			if got := r.Sum(threads); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s sum(%d) = %v, want %v", r.Name, threads, got, want)
			}
		}
	}
}

func TestPartitionSizes(t *testing.T) {
	values := testValues(3 * vector.RowGroupSize)
	r := BuildALP(values)
	if len(r.Parts) != 3 {
		t.Fatalf("got %d partitions, want 3", len(r.Parts))
	}
	if got, ok := r.CompressedBytes(); !ok || got <= 0 || got >= len(values)*8 {
		t.Fatalf("ALP compressed to %d bytes of %d raw (ok=%v)", got, len(values)*8, ok)
	}
	u := BuildUncompressed(values)
	if got, ok := u.CompressedBytes(); !ok || got != len(values)*8 {
		t.Fatalf("uncompressed footprint %d, want %d (ok=%v)", got, len(values)*8, ok)
	}
}

// TestCompressedBytesPartial: a relation mixing sized and unsized
// partitions must report ok=false so callers cannot mistake a partial
// sum for the full footprint.
func TestCompressedBytesPartial(t *testing.T) {
	values := testValues(2 * vector.Size)
	r := BuildUncompressed(values)
	r.Parts = append(r.Parts, &barePartition{values: values})
	got, ok := r.CompressedBytes()
	if ok {
		t.Fatal("CompressedBytes ok = true with an unsized partition")
	}
	if got != len(values)*8 {
		t.Fatalf("partial sum = %d, want %d (the sized partitions only)", got, len(values)*8)
	}
}

// barePartition implements only the Partition interface, no SizeBytes.
type barePartition struct{ values []float64 }

func (p *barePartition) Len() int { return len(p.values) }
func (p *barePartition) Scan(buf []float64, emit func([]float64)) {
	for lo := 0; lo < len(p.values); lo += vector.Size {
		hi := lo + vector.Size
		if hi > len(p.values) {
			hi = len(p.values)
		}
		n := copy(buf, p.values[lo:hi])
		emit(buf[:n])
	}
}

func TestSingleThreadFallback(t *testing.T) {
	values := testValues(5000)
	r := BuildALP(values)
	if got := r.Scan(0); got != len(values) {
		t.Fatalf("scan(0) = %d, want %d (threads<1 clamps to 1)", got, len(values))
	}
}

func TestEmptyRelation(t *testing.T) {
	r := BuildALP(nil)
	if r.Scan(4) != 0 || r.Sum(4) != 0 {
		t.Fatal("empty relation must scan/sum to zero")
	}
}

func TestSumRangePushdown(t *testing.T) {
	// Values rise monotonically, so only a suffix of vectors qualifies
	// for a high-range predicate: ALP must touch far fewer vectors than
	// the stream codec, while both return identical answers.
	values := make([]float64, 2*vector.RowGroupSize)
	for i := range values {
		values[i] = float64(i) / 100
	}
	lo, hi := values[len(values)-3*vector.Size], values[len(values)-1]

	alp := BuildALP(values)
	stream := BuildStream("Gorilla", values, gorilla.Compress, gorilla.Decompress)

	wantSum, wantCount := 0.0, 0
	for _, v := range values {
		if v >= lo && v <= hi {
			wantSum += v
			wantCount++
		}
	}
	for _, threads := range []int{1, 4} {
		aSum, aCount, aTouched := alp.SumRange(threads, lo, hi)
		sSum, sCount, sTouched := stream.SumRange(threads, lo, hi)
		if aCount != wantCount || sCount != wantCount {
			t.Fatalf("counts: alp %d stream %d want %d", aCount, sCount, wantCount)
		}
		if math.Abs(aSum-wantSum) > 1e-6*wantSum || math.Abs(sSum-wantSum) > 1e-6*wantSum {
			t.Fatalf("sums: alp %v stream %v want %v", aSum, sSum, wantSum)
		}
		if aTouched >= sTouched {
			t.Fatalf("push-down failed: ALP touched %d vectors, stream %d", aTouched, sTouched)
		}
		if aTouched > 4 {
			t.Fatalf("ALP touched %d vectors, want <= 4 (3 qualifying + boundary)", aTouched)
		}
	}
}

// TestScanObservability checks the engine's scan-side metrics with
// exact expected counts: morsel claims equal the number of partitions,
// worker counts are recorded, and a SumRange over a monotone column
// reports exactly the vectors the zone maps decoded vs. skipped.
func TestScanObservability(t *testing.T) {
	c := obs.Enable()
	defer obs.Disable()

	// 2 full row-groups + a partial third = 3 partitions; values rise
	// monotonically so each vector covers a disjoint band.
	n := 2*vector.RowGroupSize + 3*vector.Size
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(i) / 100
	}
	r := BuildALP(values)
	if len(r.Parts) != 3 {
		t.Fatalf("%d partitions, want 3", len(r.Parts))
	}

	c.Reset()
	if got := r.Scan(4); got != n {
		t.Fatalf("Scan counted %d tuples, want %d", got, n)
	}
	s := c.Snapshot()
	if s.MorselClaims != 3 {
		t.Fatalf("MorselClaims = %d, want 3 (one per partition)", s.MorselClaims)
	}
	if s.ScanWorkers != 4 {
		t.Fatalf("ScanWorkers = %d, want 4", s.ScanWorkers)
	}
	totalVectors := int64(vector.VectorsIn(n))
	if s.VectorsDecoded != totalVectors {
		t.Fatalf("VectorsDecoded = %d, want %d", s.VectorsDecoded, totalVectors)
	}

	// A predicate covering exactly the last 2 vectors of the column:
	// every other vector must be skipped via zone maps, none decoded
	// needlessly. [lo, hi] aligns with vector boundaries because values
	// are monotone and vectors hold consecutive runs.
	c.Reset()
	lo := values[n-2*vector.Size]
	hi := values[n-1]
	sum, count, touched := r.SumRange(2, lo, hi)
	if count != 2*vector.Size {
		t.Fatalf("count = %d, want %d", count, 2*vector.Size)
	}
	var want float64
	for i := n - 2*vector.Size; i < n; i++ {
		want += values[i]
	}
	if math.Abs(sum-want) > 1e-6*want {
		t.Fatalf("sum = %v, want %v", sum, want)
	}
	if touched != 2 {
		t.Fatalf("touched = %d, want 2", touched)
	}
	s = c.Snapshot()
	if s.MorselClaims != 3 || s.ScanWorkers != 2 || s.RangeScans != 3 {
		t.Fatalf("claims/workers/scans = %d/%d/%d, want 3/2/3",
			s.MorselClaims, s.ScanWorkers, s.RangeScans)
	}
	if s.VectorsDecoded != 2 {
		t.Fatalf("VectorsDecoded = %d, want 2", s.VectorsDecoded)
	}
	if wantSkip := totalVectors - 2; s.VectorsSkipped != wantSkip {
		t.Fatalf("VectorsSkipped = %d, want %d", s.VectorsSkipped, wantSkip)
	}
}
