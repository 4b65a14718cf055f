package alpenc

import (
	"math"
	"math/rand"
	"testing"

	"github.com/goalp/alp/internal/fastlanes"
)

// decodeFoldOracle answers a filtered aggregate the naive way: decode
// every row, compare it in the float domain, and update a copy of start
// field by field, one row at a time.
func decodeFoldOracle(v *Vector, lo, hi float64, start Agg) Agg {
	rows := make([]float64, v.N)
	v.Decode(rows, make([]int64, v.N))
	a := start
	for _, x := range rows {
		if x >= lo && x <= hi {
			a.Sum += x
			a.Count++
			if x < a.Min {
				a.Min = x
			}
			if x > a.Max {
				a.Max = x
			}
		}
	}
	return a
}

func sameBits(a, b Agg) bool {
	return math.Float64bits(a.Sum) == math.Float64bits(b.Sum) && a.Count == b.Count &&
		math.Float64bits(a.Min) == math.Float64bits(b.Min) &&
		math.Float64bits(a.Max) == math.Float64bits(b.Max)
}

// checkAggFold runs the filtered-aggregate path of a decimal vector —
// Filter, GatherSelected, then Agg.Fold over the gathered rows — and the
// float-domain fold over decoded rows (Agg.FoldMatching), from an empty
// aggregate and from a non-empty one (the running fold of a partition),
// against the oracle.
func checkAggFold(t *testing.T, what string, v *Vector, lo, hi float64) {
	t.Helper()
	for _, start := range []Agg{EmptyAgg(), {Sum: 0.1, Count: 3, Min: -0.5, Max: 7.25}} {
		want := decodeFoldOracle(v, lo, hi, start)
		sel := make([]uint64, fastlanes.SelWords(v.N))
		scratch := make([]int64, v.N)
		count := v.Filter(lo, hi, sel, scratch)
		rows := make([]float64, v.N)
		rows = rows[:v.GatherSelected(sel, scratch, rows)]
		got := start
		got.Fold(rows)
		if int64(count) != want.Count-start.Count || !sameBits(got, want) {
			t.Fatalf("%s: Filter+GatherSelected+Fold([%v, %v]) from %+v = %+v (count %d), want %+v; "+
				"e=%d f=%d width=%d n=%d exceptions=%d",
				what, lo, hi, start, got, count, want, v.E, v.F, v.Ints.Width, v.N, len(v.ExcPos))
		}
		decoded := make([]float64, v.N)
		v.Decode(decoded, scratch)
		got = start
		count = got.FoldMatching(decoded, lo, hi)
		if int64(count) != want.Count-start.Count || !sameBits(got, want) {
			t.Fatalf("%s: FoldMatching([%v, %v]) from %+v = %+v (count %d), want %+v",
				what, lo, hi, start, got, count, want)
		}
	}
}

// foldBounds returns predicates over values: the full line, a point,
// random sub-ranges between two stored values, a range strictly between
// two adjacent encodable values, and ranges above and below everything
// (which the packed bounds reject without unpacking).
func foldBounds(r *rand.Rand, values []float64) [][2]float64 {
	bounds := [][2]float64{
		{math.Inf(-1), math.Inf(1)},
		{-1e308, -1e300},
		{1e300, 1e308},
		{0, 0},
	}
	var finite []float64
	for _, x := range values {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			finite = append(finite, x)
		}
	}
	if len(finite) == 0 {
		return bounds
	}
	mn, mx := finite[0], finite[0]
	for _, x := range finite {
		mn, mx = math.Min(mn, x), math.Max(mx, x)
	}
	bounds = append(bounds,
		[2]float64{mn, mx},
		[2]float64{math.Nextafter(mx, math.Inf(1)), math.Inf(1)},
		[2]float64{math.Inf(-1), math.Nextafter(mn, math.Inf(-1))},
		[2]float64{finite[0], finite[0]},
	)
	for k := 0; k < 6; k++ {
		a, b := finite[r.Intn(len(finite))], finite[r.Intn(len(finite))]
		bounds = append(bounds, [2]float64{math.Min(a, b), math.Max(a, b)})
	}
	// Strictly between two neighbours of the encoded grid: no
	// non-exception row can match.
	x := finite[r.Intn(len(finite))]
	bounds = append(bounds, [2]float64{math.Nextafter(x, math.Inf(1)), math.Nextafter(math.Nextafter(x, math.Inf(1)), math.Inf(1))})
	return bounds
}

func TestAggFoldBitWidths(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for w := uint(0); w <= 52; w++ {
		// Integers spanning exactly 2^w - 1 under combination (0, 0), so
		// FFOR packs them at width w; the widest range uses the whole
		// encodable interval [-2^51, 2^51).
		span := int64(1)<<w - 1
		base := -span / 2
		if w == 52 {
			base = -decLimit
		}
		values := make([]float64, 1024)
		for i := range values {
			values[i] = float64(base + r.Int63n(span+1))
		}
		values[r.Intn(1024)] = float64(base)
		values[r.Intn(1024)] = float64(base + span)
		v := EncodeVector(values, Combo{E: 0, F: 0}, nil)
		if v.Ints.Width != w || len(v.ExcPos) != 0 {
			t.Fatalf("width %d: encoded at width %d with %d exceptions", w, v.Ints.Width, len(v.ExcPos))
		}
		for _, b := range foldBounds(r, values) {
			checkAggFold(t, "width", &v, b[0], b[1])
		}
		// The same integers as 2-decimal values exercise the multiply.
		dec := make([]float64, len(values))
		for i, x := range values {
			dec[i] = x * F10[0] * IF10[2]
		}
		dv := EncodeVector(dec, Combo{E: 2, F: 0}, nil)
		for _, b := range foldBounds(r, dec) {
			checkAggFold(t, "decimal width", &dv, b[0], b[1])
		}
	}
}

func TestAggFoldExceptions(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, math.Pi, 1e300, -1e300}
	prices := func(n int) []float64 {
		values := make([]float64, n)
		for i := range values {
			values[i] = float64(r.Intn(20000)-10000) / 100
		}
		return values
	}
	cases := []struct {
		name string
		n    int
		pos  []int
	}{
		{"slot 0", 1024, []int{0}},
		{"slot n-1", 1024, []int{1023}},
		{"both ends", 1024, []int{0, 1023}},
		{"adjacent", 1024, []int{63, 64, 65, 66}},
		{"word boundaries", 1024, []int{62, 63, 127, 128, 191}},
		{"short vector", 100, []int{0, 1, 99}},
		{"single value", 1, []int{0}},
		{"one word", 64, []int{0, 31, 63}},
		{"ragged tail", 1000, []int{998, 999}},
	}
	every := make([]int, 300)
	for i := range every {
		every[i] = i
	}
	cases = append(cases, struct {
		name string
		n    int
		pos  []int
	}{"every slot", 300, every})
	for _, tc := range cases {
		for s := range specials {
			// Rotate the specials over the positions; every special but
			// +0 is an exception under combination (2, 0).
			values := prices(tc.n)
			wantExc := 0
			for k, p := range tc.pos {
				values[p] = specials[(k+s)%len(specials)]
				if math.Float64bits(values[p]) != 0 {
					wantExc++
				}
			}
			v := EncodeVector(values, Combo{E: 2, F: 0}, nil)
			if len(v.ExcPos) < wantExc {
				t.Fatalf("%s: %d exceptions, want at least %d", tc.name, len(v.ExcPos), wantExc)
			}
			bounds := append(foldBounds(r, values),
				[2]float64{math.Inf(1), math.Inf(1)},
				[2]float64{math.Inf(-1), math.Inf(-1)},
				[2]float64{3, 4},
				[2]float64{1e299, math.Inf(1)},
			)
			for _, b := range bounds {
				checkAggFold(t, tc.name, &v, b[0], b[1])
			}
		}
	}
}

func TestAggFoldFullMatch(t *testing.T) {
	// Exception-free vectors under a predicate that covers every row:
	// every row is folded, in order, and a bulk decode folded without
	// comparing gives the same bits.
	for _, n := range []int{1, 63, 64, 65, 1023, 1024} {
		values := make([]float64, n)
		for i := range values {
			values[i] = float64(i*37%1000) * F10[0] * IF10[1]
		}
		v := EncodeVector(values, Combo{E: 1, F: 0}, nil)
		if len(v.ExcPos) != 0 {
			t.Fatalf("n=%d: %d exceptions", n, len(v.ExcPos))
		}
		checkAggFold(t, "full match", &v, math.Inf(-1), math.Inf(1))
		checkAggFold(t, "full match", &v, 0, 99.9)
		for _, start := range []Agg{EmptyAgg(), {Sum: 0.1, Count: 3, Min: -0.5, Max: 7.25}} {
			want := decodeFoldOracle(&v, math.Inf(-1), math.Inf(1), start)
			decoded := make([]float64, n)
			v.Decode(decoded, make([]int64, n))
			got := start
			got.Fold(decoded)
			if !sameBits(got, want) {
				t.Fatalf("n=%d: Decode+Fold from %+v = %+v, want %+v", n, start, got, want)
			}
		}
	}
}

func TestAggFoldRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	trials := 3000
	if testing.Short() {
		trials = 300
	}
	for trial := 0; trial < trials; trial++ {
		n := 1 + r.Intn(1024)
		if r.Intn(3) == 0 {
			n = 1024
		}
		e := uint8(r.Intn(MaxExponent + 1))
		f := uint8(r.Intn(int(e) + 1))
		// Values on the combination's decode grid, so most rows encode.
		scale := math.Pow(2, float64(r.Intn(40)))
		offset := math.Round((r.Float64() - 0.5) * math.Pow(2, float64(r.Intn(48))))
		values := make([]float64, n)
		for i := range values {
			values[i] = float64(offset+math.Round(r.NormFloat64()*scale)) * F10[f] * IF10[e]
		}
		excRate := []int{0, 0, 50, 10, 2}[r.Intn(5)]
		for i := range values {
			if excRate > 0 && r.Intn(excRate) == 0 {
				switch r.Intn(6) {
				case 0:
					values[i] = math.NaN()
				case 1:
					values[i] = math.Inf(1 - 2*r.Intn(2))
				case 2:
					values[i] = math.Copysign(0, -1)
				case 3:
					values[i] = math.Float64frombits(r.Uint64())
				default:
					values[i] = r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-20))
				}
			}
		}
		v := EncodeVector(values, Combo{E: e, F: f}, nil)
		for _, b := range foldBounds(r, values) {
			checkAggFold(t, "randomized", &v, b[0], b[1])
		}
	}
}
