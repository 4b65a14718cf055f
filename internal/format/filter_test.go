package format

import (
	"math"
	"math/rand"
	"testing"

	"github.com/goalp/alp/internal/fastlanes"
	"github.com/goalp/alp/internal/vector"
)

// aggOracle is the plain-slice comparand: filter then fold, in index
// order, with the same comparison semantics as the pushdown path.
func aggOracle(values []float64, lo, hi float64) FilterAggResult {
	res := FilterAggResult{Min: math.Inf(1), Max: math.Inf(-1)}
	for _, v := range values {
		if v >= lo && v <= hi {
			res.Sum += v
			res.Count++
			if v < res.Min {
				res.Min = v
			}
			if v > res.Max {
				res.Max = v
			}
		}
	}
	return res
}

func checkAggRange(t *testing.T, values []float64, lo, hi float64) {
	t.Helper()
	c := EncodeColumn(values)
	got := c.AggRange(lo, hi)
	want := aggOracle(values, lo, hi)
	if math.Float64bits(got.Sum) != math.Float64bits(want.Sum) || got.Count != want.Count ||
		math.Float64bits(got.Min) != math.Float64bits(want.Min) ||
		math.Float64bits(got.Max) != math.Float64bits(want.Max) {
		t.Fatalf("AggRange([%v, %v]) = {sum %v count %d min %v max %v}, want {sum %v count %d min %v max %v}",
			lo, hi, got.Sum, got.Count, got.Min, got.Max, want.Sum, want.Count, want.Min, want.Max)
	}
}

// TestPredicateEdgeCases is the predicate edge-case table: bounds on
// exactly encodable values, signed zeros, infinities, NaN, bounds
// outside the encodable range, and all-exception vectors — each case
// must agree with the plain-slice oracle bit-for-bit.
func TestPredicateEdgeCases(t *testing.T) {
	decimals := func(n int) []float64 {
		r := rand.New(rand.NewSource(101))
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(r.Intn(100000))/100 - 250
		}
		return out
	}
	mixedSpecials := func(n int) []float64 {
		out := decimals(n)
		out[0] = math.NaN()
		out[1] = math.Inf(1)
		out[2] = math.Inf(-1)
		out[3] = math.Copysign(0, -1)
		out[4] = 0.0
		out[n-1] = math.NaN()
		return out
	}
	allNaN := make([]float64, 2*vector.Size)
	for i := range allNaN {
		allNaN[i] = math.NaN()
	}
	irrationals := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Sqrt(float64(i + 2)) // ~100% exceptions under ALP
		}
		return out
	}

	cases := []struct {
		name   string
		values []float64
		lo, hi float64
	}{
		{"bounds exactly on encodable values", decimals(3000), 100.25, 200.75},
		{"point predicate on an encodable value", decimals(3000), 123.45, 123.45},
		{"negative zero lower bound", mixedSpecials(2000), math.Copysign(0, -1), 10},
		{"zero-zero band matches both zeros", mixedSpecials(2000), 0, 0},
		{"plus inf only", mixedSpecials(2000), math.Inf(1), math.Inf(1)},
		{"minus inf only", mixedSpecials(2000), math.Inf(-1), math.Inf(-1)},
		{"unbounded both sides skips NaN", mixedSpecials(2000), math.Inf(-1), math.Inf(1)},
		{"all NaN nothing matches", allNaN, math.Inf(-1), math.Inf(1)},
		{"bounds below encodable range", decimals(3000), -1e308, -1e300},
		{"bounds above encodable range", decimals(3000), 1e300, 1e308},
		{"band wider than encodable range", decimals(3000), -1e308, 1e308},
		{"all-exception vector", irrationals(1500), 1, 40},
		{"empty band between values", decimals(3000), 100.001, 100.002},
		{"inverted-to-empty band", decimals(3000), 5, 5.0000001},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkAggRange(t, tc.values, tc.lo, tc.hi)
		})
	}
}

func TestFilterVectorMatchesDecode(t *testing.T) {
	// Random decimal data spanning multiple row-groups: per-vector
	// filter bitmaps must match a decode-then-compare oracle.
	r := rand.New(rand.NewSource(17))
	values := make([]float64, vector.RowGroupSize+3*vector.Size+100)
	for i := range values {
		values[i] = float64(r.Intn(1000000)) / 1000
	}
	c := EncodeColumn(values)
	sel := make([]uint64, SelWords)
	buf := make([]float64, vector.Size)
	out := make([]float64, vector.Size)
	scratch := make([]int64, vector.Size)
	lo, hi := 100.0, 300.0
	for i := 0; i < c.NumVectors(); i++ {
		count, pushdown := c.FilterVector(i, lo, hi, sel, buf, scratch)
		if !pushdown {
			t.Fatalf("vector %d: decimal data should push down", i)
		}
		n := c.DecodeVector(i, buf, scratch)
		want := 0
		for j := 0; j < n; j++ {
			match := buf[j] >= lo && buf[j] <= hi
			if match {
				want++
			}
			if got := sel[j>>6]&(1<<uint(j&63)) != 0; got != match {
				t.Fatalf("vector %d row %d: sel = %v, want %v (value %v)", i, j, got, match, buf[j])
			}
		}
		if count != want {
			t.Fatalf("vector %d: count = %d, want %d", i, count, want)
		}
		// Re-filter (DecodeVector clobbered scratch) and gather.
		gcount, _ := c.FilterGatherVector(i, lo, hi, sel, out, scratch)
		if gcount != want {
			t.Fatalf("vector %d: gather count = %d, want %d", i, gcount, want)
		}
		k := 0
		for j := 0; j < n; j++ {
			if buf[j] >= lo && buf[j] <= hi {
				if out[k] != buf[j] {
					t.Fatalf("vector %d: gathered[%d] = %v, want %v", i, k, out[k], buf[j])
				}
				k++
			}
		}
	}
}

// rdEdgeColumn is an ALP_rd column of real doubles with NaN payloads,
// infinities, signed zeros and subnormals spliced in, at vector edges
// too, whose last vector's length is not a multiple of 64.
func rdEdgeColumn(t *testing.T) ([]float64, *Column) {
	t.Helper()
	r := rand.New(rand.NewSource(19))
	values := make([]float64, 2*vector.Size+1000)
	for i := range values {
		values[i] = r.NormFloat64()
	}
	specials := []float64{
		math.Float64frombits(0x7FF8DEADBEEF0001), math.Float64frombits(0xFFF0000000000001),
		math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		5e-324, -5e-324, math.Float64frombits(0x000FFFFFFFFFFFFF),
	}
	for k, pos := range []int{0, 63, 64, 700, vector.Size - 1, vector.Size, 1500, 2*vector.Size + 999, 2*vector.Size + 960} {
		values[pos] = specials[k%len(specials)]
	}
	c := EncodeColumn(values)
	for g := range c.RowGroups {
		if c.RowGroups[g].Scheme != SchemeRD {
			t.Fatalf("row-group %d sampled to scheme %v, want ALP_rd", g, c.RowGroups[g].Scheme)
		}
	}
	return values, c
}

// TestFilterVectorRDFallback runs FilterVector and FilterGatherVector
// over every ALP_rd vector at the bounds of TestPredicateEdgeCases: the
// bitmap, the count and the gathered rows must equal a compare over the
// original rows, bit for bit.
func TestFilterVectorRDFallback(t *testing.T) {
	values, c := rdEdgeColumn(t)
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name   string
		lo, hi float64
	}{
		{"NaN lower bound", math.NaN(), 1},
		{"NaN upper bound", -1, math.NaN()},
		{"zero-zero band matches both zeros", 0, 0},
		{"negative zero point band", negZero, negZero},
		{"negative zero lower bound", negZero, 0.5},
		{"plus inf only", math.Inf(1), math.Inf(1)},
		{"minus inf only", math.Inf(-1), math.Inf(-1)},
		{"unbounded both sides skips NaN", math.Inf(-1), math.Inf(1)},
		{"subnormals and zeros", -1e-300, 1e-300},
		{"middle band", -0.5, 0.5},
		{"point band on a stored value", values[777], values[777]},
		{"empty band between values", values[777], math.Nextafter(values[777], math.Inf(-1))},
		{"inverted band", 1, -1},
	}
	sel := make([]uint64, SelWords)
	gsel := make([]uint64, SelWords)
	buf := make([]float64, vector.Size)
	out := make([]float64, vector.Size)
	scratch := make([]int64, vector.Size)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < c.NumVectors(); i++ {
				lo, hi := vector.Bounds(i, len(values))
				want := make([]uint64, fastlanes.SelWords(hi-lo))
				var rows []float64
				for r, x := range values[lo:hi] {
					if x >= tc.lo && x <= tc.hi {
						want[r>>6] |= 1 << uint(r&63)
						rows = append(rows, x)
					}
				}
				count, pushdown := c.FilterVector(i, tc.lo, tc.hi, sel, buf, scratch)
				gcount, gpushdown := c.FilterGatherVector(i, tc.lo, tc.hi, gsel, out, scratch)
				if pushdown || gpushdown {
					t.Fatalf("vector %d: an ALP_rd vector reported pushdown", i)
				}
				if count != len(rows) || gcount != len(rows) {
					t.Fatalf("vector %d: FilterVector counted %d, FilterGatherVector %d, want %d", i, count, gcount, len(rows))
				}
				for w := range want {
					if sel[w] != want[w] || gsel[w] != want[w] {
						t.Fatalf("vector %d word %d: FilterVector %#x, FilterGatherVector %#x, want %#x", i, w, sel[w], gsel[w], want[w])
					}
				}
				for r, x := range rows {
					if math.Float64bits(out[r]) != math.Float64bits(x) {
						t.Fatalf("vector %d gathered row %d = %#x, want %#x", i, r, math.Float64bits(out[r]), math.Float64bits(x))
					}
				}
			}
		})
	}
}

// BenchmarkFilterGatherVectorRD times filter-and-gather over an ALP_rd
// row-group of POI-like doubles at 1% and 50% selectivity.
func BenchmarkFilterGatherVectorRD(b *testing.B) {
	r := rand.New(rand.NewSource(20))
	values := make([]float64, vector.RowGroupSize)
	for i := range values {
		values[i] = (r.Float64()*180 - 90) * math.Pi / 180
	}
	c := EncodeColumn(values)
	if !c.UsedRD() {
		b.Fatal("POI-like row-group did not sample to ALP_rd")
	}
	sel := make([]uint64, SelWords)
	out := make([]float64, vector.Size)
	scratch := make([]int64, vector.Size)
	for _, band := range []struct {
		name   string
		lo, hi float64
	}{{"1pct", 0, 0.0157}, {"50pct", 0, math.Pi / 2}} {
		b.Run(band.name, func(b *testing.B) {
			b.SetBytes(int64(len(values)) * 8)
			for k := 0; k < b.N; k++ {
				for i := 0; i < c.NumVectors(); i++ {
					c.FilterGatherVector(i, band.lo, band.hi, sel, out, scratch)
				}
			}
		})
	}
}

func TestAggRangeEmptyColumn(t *testing.T) {
	c := EncodeColumn(nil)
	res := c.AggRange(0, 1)
	if res.Count != 0 || res.Sum != 0 || !math.IsInf(res.Min, 1) || !math.IsInf(res.Max, -1) {
		t.Fatalf("empty column AggRange = %+v", res)
	}
}

func TestAggRangeZoneSkip(t *testing.T) {
	// Disjoint per-vector bands: a predicate covering one band must
	// touch exactly one vector.
	values := make([]float64, 4*vector.Size)
	for i := range values {
		values[i] = float64(i/vector.Size)*1000 + float64(i%7)/100
	}
	c := EncodeColumn(values)
	res := c.AggRange(1000, 1000.99)
	if res.Touched != 1 {
		t.Fatalf("touched %d vectors, want 1", res.Touched)
	}
	if res.Count != vector.Size {
		t.Fatalf("count = %d, want %d", res.Count, vector.Size)
	}
}

func TestSelWordsConstant(t *testing.T) {
	if SelWords != fastlanes.SelWords(vector.Size) {
		t.Fatalf("SelWords = %d, want %d", SelWords, fastlanes.SelWords(vector.Size))
	}
}
