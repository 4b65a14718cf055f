package engine

import (
	"math"
	"testing"

	"github.com/goalp/alp/internal/alpenc"
	"github.com/goalp/alp/internal/gorilla"
	"github.com/goalp/alp/internal/obs"
	"github.com/goalp/alp/internal/vector"
)

// aggOracle filters and folds a plain slice in the fold order — the
// ground truth every engine path must reproduce: each row-group folds
// from a fresh accumulator in index order, and the row-group
// aggregates merge in row-group order.
func aggOracle(values []float64, p Predicate) Agg {
	total := alpenc.EmptyAgg()
	for lo := 0; lo < len(values); lo += vector.RowGroupSize {
		a := alpenc.EmptyAgg()
		for _, v := range values[lo:min(lo+vector.RowGroupSize, len(values))] {
			if p.Match(v) {
				a.Sum += v
				a.Count++
				if v < a.Min {
					a.Min = v
				}
				if v > a.Max {
					a.Max = v
				}
			}
		}
		total.Sum += a.Sum
		total.Count += a.Count
		if a.Min < total.Min {
			total.Min = a.Min
		}
		if a.Max > total.Max {
			total.Max = a.Max
		}
	}
	return total
}

func sameAgg(a, b Agg) bool {
	return math.Float64bits(a.Sum) == math.Float64bits(b.Sum) && a.Count == b.Count &&
		math.Float64bits(a.Min) == math.Float64bits(b.Min) &&
		math.Float64bits(a.Max) == math.Float64bits(b.Max)
}

func TestPredicateForms(t *testing.T) {
	cases := []struct {
		name string
		p    Predicate
		in   []float64
		out  []float64
	}{
		{"Between", Between(1, 3), []float64{1, 2, 3}, []float64{0.999, 3.001, math.NaN()}},
		{"GE", GE(2), []float64{2, 3, math.Inf(1)}, []float64{1.999, math.Inf(-1), math.NaN()}},
		{"GT", GT(2), []float64{2.0000000000000004, 3}, []float64{2, 1, math.NaN()}},
		{"LE", LE(2), []float64{2, 1, math.Inf(-1)}, []float64{2.001, math.Inf(1), math.NaN()}},
		{"LT", LT(2), []float64{1.9999999999999998, -5}, []float64{2, 3, math.NaN()}},
		{"EQ", EQ(0), []float64{0, math.Copysign(0, -1)}, []float64{1e-300, -1e-300, math.NaN()}},
		{"GT of +Inf is empty", GT(math.Inf(1)), nil, []float64{math.Inf(1), math.MaxFloat64, math.NaN()}},
		{"LT of -Inf is empty", LT(math.Inf(-1)), nil, []float64{math.Inf(-1), -math.MaxFloat64, math.NaN()}},
		{"GT NaN is empty", GT(math.NaN()), nil, []float64{0, math.Inf(1), math.NaN()}},
	}
	for _, tc := range cases {
		for _, v := range tc.in {
			if !tc.p.Match(v) {
				t.Errorf("%s: Match(%v) = false, want true", tc.name, v)
			}
		}
		for _, v := range tc.out {
			if tc.p.Match(v) {
				t.Errorf("%s: Match(%v) = true, want false", tc.name, v)
			}
		}
	}
}

func TestFilterAggMatchesOracleAllRelations(t *testing.T) {
	values := testValues(vector.RowGroupSize + 2345)
	rels := []*Relation{
		BuildALP(values),
		BuildUncompressed(values),
		BuildStream("Gorilla", values, gorilla.Compress, gorilla.Decompress),
	}
	preds := []Predicate{
		Between(-5, 10),
		GE(20), LE(0), GT(15.5), LT(-3.25), EQ(values[7]),
		Between(math.Inf(-1), math.Inf(1)),
		Between(1e300, math.Inf(1)), // empty
	}
	for _, p := range preds {
		want := aggOracle(values, p)
		for _, r := range rels {
			got, _ := r.FilterAgg(1, p)
			if !sameAgg(got, want) {
				t.Fatalf("%s FilterAgg(1, [%v,%v]) = %+v, want %+v", r.Name, p.Lo, p.Hi, got, want)
			}
			naive, _ := r.FilterAggNaive(1, p)
			if !sameAgg(naive, want) {
				t.Fatalf("%s FilterAggNaive(1, [%v,%v]) = %+v, want %+v", r.Name, p.Lo, p.Hi, naive, want)
			}
			if c := r.FilterCount(1, p); c != want.Count {
				t.Fatalf("%s FilterCount = %d, want %d", r.Name, c, want.Count)
			}
			// Partials merge in row-group order whatever the thread
			// count, so every field stays bit-exact.
			for _, threads := range []int{2, 4, 8} {
				got, _ := r.FilterAgg(threads, p)
				if !sameAgg(got, want) {
					t.Fatalf("%s FilterAgg(%d, [%v,%v]) = %+v, want %+v", r.Name, threads, p.Lo, p.Hi, got, want)
				}
			}
		}
	}
}

func TestFilterAggSkipsAndPushesDown(t *testing.T) {
	c := obs.Enable()
	defer obs.Disable()

	// Monotone values: a predicate over the last 1.5 vectors must skip
	// everything else via zone maps, answer the straddled vector in the
	// encoded domain, and answer the fully-covered last vector from
	// metadata + bulk decode.
	n := vector.RowGroupSize + 3*vector.Size
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(i) / 100
	}
	r := BuildALP(values)
	p := Between(values[n-vector.Size-vector.Size/2], values[n-1])

	c.Reset()
	got, touched := r.FilterAgg(1, p)
	want := aggOracle(values, p)
	if !sameAgg(got, want) {
		t.Fatalf("FilterAgg = %+v, want %+v", got, want)
	}
	if touched != 2 {
		t.Fatalf("touched %d vectors, want 2 (1 straddled + 1 fully covered)", touched)
	}
	s := c.Snapshot()
	if s.PushdownVectors != int64(touched) {
		t.Fatalf("PushdownVectors = %d, want %d (all touched vectors pushed down)", s.PushdownVectors, touched)
	}
	if s.PushdownFallbacks != 0 {
		t.Fatalf("PushdownFallbacks = %d, want 0 on decimal data", s.PushdownFallbacks)
	}
	if s.SelectedRows != want.Count {
		t.Fatalf("SelectedRows = %d, want %d", s.SelectedRows, want.Count)
	}
	if s.VectorsDecoded != 1 {
		t.Fatalf("VectorsDecoded = %d, want 1 — only the fully-covered vector bulk-decodes; the straddled vector stays in the encoded domain", s.VectorsDecoded)
	}
	wantSkipped := int64(vector.VectorsIn(n) - touched)
	if s.VectorsSkipped != wantSkipped {
		t.Fatalf("VectorsSkipped = %d, want %d", s.VectorsSkipped, wantSkipped)
	}

	// The naive comparand decodes everything and counts fallbacks.
	c.Reset()
	naive, naiveTouched := r.FilterAggNaive(1, p)
	if !sameAgg(naive, want) {
		t.Fatalf("FilterAggNaive = %+v, want %+v", naive, want)
	}
	if naiveTouched != vector.VectorsIn(n) {
		t.Fatalf("naive touched %d vectors, want all %d", naiveTouched, vector.VectorsIn(n))
	}
	s = c.Snapshot()
	if s.PushdownVectors != 0 || s.PushdownFallbacks != int64(naiveTouched) {
		t.Fatalf("naive PushdownVectors/Fallbacks = %d/%d, want 0/%d",
			s.PushdownVectors, s.PushdownFallbacks, naiveTouched)
	}
}

// TestFilterCountAllocsNoFloats asserts the core pushdown guarantee:
// counting under a predicate that qualifies nothing in a vector
// allocates nothing and never converts an integer to a float. The
// partition-level call is measured directly (Relation methods spawn
// goroutines, which allocate by design).
func TestFilterCountAllocsNoFloats(t *testing.T) {
	values := make([]float64, 4*vector.Size)
	for i := range values {
		values[i] = float64(i%1000) + 0.25
	}
	r := BuildALP(values)
	part := r.Parts[0].(*alpPartition)
	// Defeat zone maps with a predicate inside the value range that no
	// encodable value satisfies, so every vector is kernel-scanned yet
	// qualifying-free.
	p := Between(500.30, 500.70)
	if c, _ := part.FilterCount(p, newFilterBufs()); c != 0 {
		t.Fatalf("predicate unexpectedly selects %d rows", c)
	}
	bufs := newFilterBufs()
	allocs := testing.AllocsPerRun(50, func() {
		part.FilterCount(p, bufs)
	})
	if allocs != 0 {
		t.Fatalf("FilterCount allocates %.1f objects per scan, want 0", allocs)
	}
	aggAllocs := testing.AllocsPerRun(50, func() {
		part.FilterAgg(p, bufs)
	})
	if aggAllocs != 0 {
		t.Fatalf("FilterAgg allocates %.1f objects per scan, want 0", aggAllocs)
	}
}

func TestFilterAggEmptyAndThreadClamp(t *testing.T) {
	r := BuildALP(nil)
	a, touched := r.FilterAgg(0, Between(0, 1))
	if a.Count != 0 || a.Sum != 0 || touched != 0 {
		t.Fatalf("empty relation FilterAgg = %+v touched %d", a, touched)
	}
	if !math.IsInf(a.Min, 1) || !math.IsInf(a.Max, -1) {
		t.Fatalf("empty Min/Max = %v/%v, want +Inf/-Inf", a.Min, a.Max)
	}
}
