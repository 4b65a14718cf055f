package alpenc

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/goalp/alp/internal/bitpack"
	"github.com/goalp/alp/internal/dataset"
	"github.com/goalp/alp/internal/fastlanes"
	"github.com/goalp/alp/internal/vector"
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
// Filter, GatherSelected, then Agg.Fold over the gathered rows, or
// Filter then Agg.FoldSelected when the vector has no exceptions — and
// the float-domain fold over decoded rows (Agg.FoldMatching), from an empty
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
		if len(v.ExcPos) == 0 {
			// The integer fold reads the same Filter's bitmap and
			// scratch.
			got = start
			got.FoldSelected(v, sel, scratch)
			if !sameBits(got, want) {
				t.Fatalf("%s: Filter+FoldSelected([%v, %v]) from %+v = %+v, want %+v; e=%d f=%d width=%d n=%d",
					what, lo, hi, start, got, want, v.E, v.F, v.Ints.Width, v.N)
			}
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
			base = -int64(width64.limit)
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
	// comparing, or the integer fold of every row, gives the same bits.
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
			checkFoldVector(t, &v, start)
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

// foldStarts are the start accumulators every integer fold is checked
// from: the empty aggregate, a running one, bounds at ±0 (which < and >
// must leave alone against a +0 row), a NaN sum, NaN bounds, and ±Inf
// bounds that no row can pass.
var foldStarts = []Agg{
	EmptyAgg(),
	{Sum: 0.1, Count: 3, Min: -0.5, Max: 7.25},
	{Sum: 0, Count: 1, Min: 0, Max: 0},
	{Sum: math.Copysign(0, -1), Count: 1, Min: math.Copysign(0, -1), Max: math.Copysign(0, -1)},
	{Sum: math.NaN(), Count: 2, Min: 1, Max: 2},
	{Sum: 1, Count: 2, Min: math.NaN(), Max: math.NaN()},
	{Sum: math.Inf(1), Count: 5, Min: math.Inf(-1), Max: math.Inf(1)},
}

// handVector builds an exception-free vector from raw payload offsets
// (each below 2^width), an arbitrary base and combination, the way a
// stream from outside may carry them: the encoder would never write most
// of these, but every one decodes.
func handVector(payload []uint64, base int64, width uint, e, f uint8) Vector {
	words := make([]uint64, bitpack.WordCount(len(payload), width))
	bitpack.Pack(words, payload, width, 0)
	return Vector{E: e, F: f, N: len(payload),
		Ints: fastlanes.FFOR{Base: base, Width: width, N: len(payload), Words: words}}
}

// randomPayload returns n offsets below 2^width, with the extremes of
// the range and repeated values planted so MIN and MAX see ties.
func randomPayload(r *rand.Rand, n int, width uint) []uint64 {
	mask := ^uint64(0)
	if width < 64 {
		mask = 1<<width - 1
	}
	p := make([]uint64, n)
	for i := range p {
		p[i] = r.Uint64() & mask
	}
	p[r.Intn(n)] = 0
	p[r.Intn(n)] = mask
	p[r.Intn(n)] = p[r.Intn(n)]
	return p
}

// randomSel returns a selection bitmap over n rows at one of several
// densities; bits at or past n stay clear, as Filter leaves them.
func randomSel(r *rand.Rand, n int) []uint64 {
	sel := make([]uint64, fastlanes.SelWords(n))
	density := []int{0, 1, 8, 50, 95, 100}[r.Intn(6)]
	for i := 0; i < n; i++ {
		if r.Intn(100) < density {
			sel[i>>6] |= 1 << uint(i&63)
		}
	}
	return sel
}

// foldBases are the FFOR bases the integer folds are checked at: zero,
// negative, the ends of ALP's encodable range and values near ±2^63,
// where base plus payload wraps.
var foldBases = []int64{0, -1, 7, -123456789, -1 << 51, 1 << 51,
	math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1000, -1 << 62}

// checkFoldVector checks FoldVector against Decode then Fold from start.
func checkFoldVector(t *testing.T, v *Vector, start Agg) {
	t.Helper()
	rows := make([]float64, v.N)
	v.Decode(rows, make([]int64, v.N))
	want := start
	want.Fold(rows)
	got := start
	got.FoldVector(v, make([]int64, v.N))
	if !sameBits(got, want) {
		t.Fatalf("FoldVector from %+v = %+v, want %+v (Decode+Fold); base=%d width=%d e=%d f=%d n=%d",
			start, got, want, v.Ints.Base, v.Ints.Width, v.E, v.F, v.N)
	}
}

// checkFoldSelected checks FoldSelected against GatherSelected then Fold
// from start, both reading the raw packed integers a Filter leaves in
// scratch.
func checkFoldSelected(t *testing.T, v *Vector, sel []uint64, start Agg) {
	t.Helper()
	scratch := make([]int64, v.N)
	v.Ints.UnpackRaw(scratch)
	rows := make([]float64, v.N)
	rows = rows[:v.GatherSelected(sel, scratch, rows)]
	want := start
	want.Fold(rows)
	got := start
	got.FoldSelected(v, sel, scratch)
	if !sameBits(got, want) {
		t.Fatalf("FoldSelected from %+v = %+v, want %+v (GatherSelected+Fold of %d rows); base=%d width=%d e=%d f=%d n=%d",
			start, got, want, len(rows), v.Ints.Base, v.Ints.Width, v.E, v.F, v.N)
	}
}

// eachHandVector calls check on hand-built exception-free vectors: every
// width 0–64 at lengths 1, 63, 64, 65, 1000 and 1024 and every base of
// foldBases, the valid (e, f) taken in turn, then one vector per valid
// (e, f) at a random width, length and base.
func eachHandVector(r *rand.Rand, check func(v *Vector)) {
	var combos []Combo
	for e := 0; e <= MaxExponent; e++ {
		for f := 0; f <= e; f++ {
			combos = append(combos, Combo{E: uint8(e), F: uint8(f)})
		}
	}
	k := 0
	for w := uint(0); w <= 64; w++ {
		for _, n := range []int{1, 63, 64, 65, 1000, 1024} {
			for _, base := range foldBases {
				c := combos[k%len(combos)]
				k++
				v := handVector(randomPayload(r, n, w), base, w, c.E, c.F)
				check(&v)
			}
		}
	}
	for _, c := range combos {
		w := uint(r.Intn(65))
		v := handVector(randomPayload(r, 1+r.Intn(1024), w), int64(r.Uint64()), w, c.E, c.F)
		check(&v)
	}
}

func TestFoldVectorMatchesDecodeFold(t *testing.T) {
	eachHandVector(rand.New(rand.NewSource(24)), func(v *Vector) {
		for _, start := range foldStarts {
			checkFoldVector(t, v, start)
		}
	})
}

func TestFoldSelectedMatchesGatherFold(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	eachHandVector(r, func(v *Vector) {
		sel := randomSel(r, v.N)
		for _, start := range foldStarts {
			checkFoldSelected(t, v, sel, start)
		}
	})
}

// FuzzFoldVector builds an exception-free vector from a fuzzed base,
// width, combination, length and payload, and checks both integer folds
// from a fuzzed start accumulator against their float-buffer
// counterparts, in Float64bits.
func FuzzFoldVector(f *testing.F) {
	f.Add(int64(0), uint8(10), uint8(2), uint8(0), uint16(1023), int64(1), []byte("payload"),
		math.Float64bits(0), math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)))
	f.Add(int64(math.MinInt64), uint8(64), uint8(21), uint8(21), uint16(63), int64(2), []byte{0xff, 0, 0x80},
		math.Float64bits(math.NaN()), math.Float64bits(0), math.Float64bits(math.Copysign(0, -1)))
	f.Add(int64(math.MaxInt64-5), uint8(3), uint8(7), uint8(3), uint16(0), int64(3), []byte{},
		math.Float64bits(-1.5), math.Float64bits(math.Copysign(0, -1)), math.Float64bits(0))
	f.Fuzz(func(t *testing.T, base int64, width, e, fc uint8, n uint16, selSeed int64, payload []byte, sumBits, minBits, maxBits uint64) {
		w := uint(width % 65)
		ee := e % (MaxExponent + 1)
		ff := fc % (ee + 1)
		rows := 1 + int(n%1024)
		mask := ^uint64(0)
		if w < 64 {
			mask = 1<<w - 1
		}
		p := make([]uint64, rows)
		if len(payload) > 0 {
			for i := range p {
				var b [8]byte
				for j := range b {
					b[j] = payload[(i*8+j)%len(payload)]
				}
				p[i] = (binary.LittleEndian.Uint64(b[:]) + uint64(i)*0x9e3779b97f4a7c15) & mask
			}
		}
		v := handVector(p, base, w, ee, ff)
		start := Agg{Sum: math.Float64frombits(sumBits), Count: int64(n), Min: math.Float64frombits(minBits), Max: math.Float64frombits(maxBits)}
		checkFoldVector(t, &v, start)
		checkFoldSelected(t, &v, randomSel(rand.New(rand.NewSource(selSeed)), rows), start)
	})
}

// foldSink keeps BenchmarkFoldVector's results alive.
var foldSink Agg

// BenchmarkFoldVector folds 2,000 exception-free City-Temp vectors
// (about 2 MB packed, more than L2), every row and then the rows of a
// mid-range predicate, through the float buffer and straight from the
// integers. It reports ns per folded vector row.
func BenchmarkFoldVector(b *testing.B) {
	d, _ := dataset.ByName("City-Temp")
	values := d.Generate(2000 * vector.Size)
	var vs []Vector
	for i := 0; i < len(values); i += vector.Size {
		src := values[i : i+vector.Size]
		c, _ := FindBest(src)
		if v := EncodeVector(src, c, nil); len(v.ExcPos) == 0 {
			vs = append(vs, v)
		}
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	lo, hi := sorted[len(sorted)/4], sorted[3*len(sorted)/4]
	rows := make([]float64, vector.Size)
	scratch := make([]int64, vector.Size)
	sel := make([]uint64, fastlanes.SelWords(vector.Size))
	run := func(name string, fold func(a *Agg, v *Vector)) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a := EmptyAgg()
				for k := range vs {
					fold(&a, &vs[k])
				}
				foldSink = a
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vs)*vector.Size), "ns/value")
		})
	}
	run("all/Decode+Fold", func(a *Agg, v *Vector) {
		v.Decode(rows[:v.N], scratch)
		a.Fold(rows[:v.N])
	})
	run("all/FoldVector", func(a *Agg, v *Vector) { a.FoldVector(v, scratch) })
	run("half/Filter+GatherSelected+Fold", func(a *Agg, v *Vector) {
		if v.Filter(lo, hi, sel, scratch) > 0 {
			a.Fold(rows[:v.GatherSelected(sel, scratch, rows)])
		}
	})
	run("half/Filter+FoldSelected", func(a *Agg, v *Vector) {
		if v.Filter(lo, hi, sel, scratch) > 0 {
			a.FoldSelected(v, sel, scratch)
		}
	})
}
