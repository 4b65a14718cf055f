package alpenc

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/goalp/alp/internal/vector"
)

// fastRoundCase is one fast-rounding input: in lies within ±limit and
// rounds to want, ties to even.
type fastRoundCase[T vector.Float] struct {
	in   T
	want int64
}

// ulpAway returns the neighbour of x one ulp further from zero, and
// ulpToward the one one ulp closer to zero (x finite and non-zero).
func ulpAway[T vector.Float](x T) T   { return vector.FromBits[T](vector.ToBits(x) + 1) }
func ulpToward[T vector.Float](x T) T { return vector.FromBits[T](vector.ToBits(x) - 1) }

// boundaryCases are the fast-rounding cases every width shares: ±limit,
// one ulp inside it, and ties next to it, which must round to even.
func boundaryCases[T vector.Float]() []fastRoundCase[T] {
	limit := widthOf[T]().limit
	l := int64(limit)
	return []fastRoundCase[T]{
		{0, 0}, {1, 1}, {-1, -1}, {1.4, 1}, {1.6, 2}, {-1.4, -1}, {-1.6, -2},
		{0.5, 0}, {1.5, 2}, {2.5, 2}, {-2.5, -2},
		{limit, l}, {-limit, -l},
		{ulpToward(limit), l}, {ulpToward(-limit), -l},
		{limit - 0.5, l}, {limit - 1.5, l - 2},
		{-limit + 0.5, -l}, {-limit + 1.5, -l + 2},
	}
}

func checkFastRound[T vector.Float](t *testing.T, cases []fastRoundCase[T]) {
	t.Helper()
	w := widthOf[T]()
	for _, c := range cases {
		if c.in < -w.limit || c.in > w.limit {
			t.Fatalf("%T case %v lies outside ±%v", c.in, c.in, w.limit)
		}
		if got := fastRound(c.in, w.sweet); got != c.want {
			t.Errorf("fastRound(%T %v) = %d, want %d", c.in, c.in, got, c.want)
		}
		if want := int64(math.RoundToEven(float64(c.in))); want != c.want {
			t.Errorf("%T case %v: want %d, but RoundToEven gives %d", c.in, c.in, c.want, want)
		}
	}
}

// TestFastRound checks the sweet-spot rounding of doubles on a table:
// small values, halves, ±limit, one ulp inside it and the ties next to
// it.
func TestFastRound(t *testing.T) {
	checkFastRound(t, append(boundaryCases[float64](),
		fastRoundCase[float64]{80604.99999999985448, 80605},
		fastRoundCase[float64]{123456789.2, 123456789}))
}

// TestFastRound32 checks the same table at float32, plus ties that
// float32 holds exactly.
func TestFastRound32(t *testing.T) {
	checkFastRound(t, append(boundaryCases[float32](),
		fastRoundCase[float32]{80604.5, 80604},
		fastRoundCase[float32]{80605.5, 80606}))
}

// fastRoundMatchesRoundToEven checks fastRound against math.RoundToEven
// on 10k random values within ±limit: every fourth value a tie
// (k + 0.5), the rest spread over every binade up to the limit.
func fastRoundMatchesRoundToEven[T vector.Float](t *testing.T, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	w := widthOf[T]()
	e := bits.Len64(uint64(w.limit)) - 1
	for i := 0; i < 10000; i++ {
		var x T
		if i%4 == 0 {
			x = T(r.Int63n(int64(w.limit))-int64(w.limit)/2) + 0.5
		} else {
			x = T(math.Ldexp(2*r.Float64()-1, r.Intn(e+1)))
		}
		if got, want := fastRound(x, w.sweet), int64(math.RoundToEven(float64(x))); got != want {
			t.Fatalf("fastRound(%T %v) = %d, want %d", x, x, got, want)
		}
	}
}

func TestFastRoundMatchesRoundToEven(t *testing.T) {
	fastRoundMatchesRoundToEven[float64](t, 1)
	fastRoundMatchesRoundToEven[float32](t, 2)
}

// limitExceptions encodes the values around the fast-rounding limit and
// the specials: ±limit encode, while one ulp past it, NaN (payload
// included), ±Inf and -0 each become an exception, and all of them
// decode bit-exactly.
func limitExceptions[T vector.Float](t *testing.T) {
	t.Helper()
	limit := widthOf[T]().limit
	inf := T(math.Inf(1))
	src := []T{limit, -limit, 3}
	excepted := []T{
		ulpAway(limit), ulpAway(-limit), T(math.NaN()), vector.FromBits[T](vector.ToBits(inf) | 1),
		inf, -inf, T(math.Copysign(0, -1)),
	}
	src = append(src, excepted...)
	v := EncodeVector(src, Combo{}, nil)
	if want := uint16(len(src) - len(excepted)); v.Exceptions() != len(excepted) || v.ExcPos[0] != want {
		t.Fatalf("%T: exceptions at %v, want every position from %d", limit, v.ExcPos, want)
	}
	got := make([]T, len(src))
	v.Decode(got, nil)
	for i := range src {
		if vector.ToBits(got[i]) != vector.ToBits(src[i]) {
			t.Fatalf("%T value %d: got bits %#x, want %#x", limit, i, vector.ToBits(got[i]), vector.ToBits(src[i]))
		}
	}
}

func TestFastRoundLimitExceptions(t *testing.T) {
	limitExceptions[float64](t)
	limitExceptions[float32](t)
}

// TestPaperExample walks the worked example of §2.6: the double nearest
// to 8.0605 encodes with e=14, f=10 to d=80605 and decodes bit-exactly.
func TestPaperExample(t *testing.T) {
	n := 8.0605 // the double 8.0604999999999933209...
	scaled := n * F10[14] * IF10[10]
	d := fastRound(scaled, width64.sweet)
	if d != 80605 {
		t.Fatalf("ALP_enc(8.0605, e=14, f=10) = %d, want 80605", d)
	}
	back := float64(d) * F10[10] * IF10[14]
	if math.Float64bits(back) != math.Float64bits(n) {
		t.Fatalf("ALP_dec mismatch: got %v (%#x), want %v (%#x)",
			back, math.Float64bits(back), n, math.Float64bits(n))
	}
	// And, per §2.5, the naive e=4 procedure fails on the same value.
	d4 := fastRound(n*F10[4], width64.sweet)
	back4 := float64(d4) * IF10[4]
	if math.Float64bits(back4) == math.Float64bits(n) {
		t.Fatal("P_dec with e=4 unexpectedly recovered the double; the paper's premise would not hold")
	}
}

// decimals generates n decimal values with the given precision, the core
// case ALP is designed for.
func decimals(r *rand.Rand, n, precision int) []float64 {
	out := make([]float64, n)
	scale := math.Pow(10, float64(precision))
	for i := range out {
		out[i] = float64(r.Intn(1_000_000)) / scale
	}
	return out
}

func roundTrip(t *testing.T, src []float64) *Vector {
	t.Helper()
	dec := SampleRowGroup(src)
	if len(dec.Combos) == 0 {
		t.Fatal("sampler returned no combinations")
	}
	c, _ := ChooseForVector(src, dec.Combos)
	v := EncodeVector(src, c, nil)
	got := make([]float64, len(src))
	v.Decode(got, nil)
	for i := range src {
		if math.Float64bits(got[i]) != math.Float64bits(src[i]) {
			t.Fatalf("value %d: got %v (%#x), want %v (%#x)",
				i, got[i], math.Float64bits(got[i]), src[i], math.Float64bits(src[i]))
		}
	}
	return &v
}

func TestRoundTripDecimals(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, prec := range []int{0, 1, 2, 4, 7, 10} {
		v := roundTrip(t, decimals(r, 1024, prec))
		if v.Exceptions() > v.N/20 {
			t.Errorf("precision %d: %d exceptions, want near zero", prec, v.Exceptions())
		}
		if v.SizeBits() >= 1024*64 {
			t.Errorf("precision %d: no compression achieved (%d bits)", prec, v.SizeBits())
		}
	}
}

func TestRoundTripSpecials(t *testing.T) {
	src := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		1.5, -2.25, 8.0605, 1e300, -1e-300, math.Pi,
	}
	v := EncodeVector(src, Combo{E: 14, F: 10}, nil)
	got := make([]float64, len(src))
	v.Decode(got, nil)
	for i := range src {
		if math.Float64bits(got[i]) != math.Float64bits(src[i]) {
			t.Fatalf("value %d (%v): got bits %#x, want %#x",
				i, src[i], math.Float64bits(got[i]), math.Float64bits(src[i]))
		}
	}
	if v.Exceptions() == 0 {
		t.Fatal("specials must produce exceptions")
	}
}

func TestAllExceptions(t *testing.T) {
	src := make([]float64, 100)
	r := rand.New(rand.NewSource(3))
	for i := range src {
		src[i] = math.Float64frombits(r.Uint64()) // mostly unencodable garbage
	}
	v := EncodeVector(src, Combo{E: 14, F: 14}, nil)
	got := make([]float64, len(src))
	v.Decode(got, nil)
	for i := range src {
		if math.Float64bits(got[i]) != math.Float64bits(src[i]) {
			t.Fatalf("value %d: mismatch", i)
		}
	}
}

func TestDecodeVariantsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	src := decimals(r, 1024, 3)
	v := EncodeVector(src, Combo{E: 14, F: 11}, nil)
	a := make([]float64, len(src))
	b := make([]float64, len(src))
	c := make([]float64, len(src))
	v.Decode(a, nil)
	v.DecodeUnfused(b, nil)
	v.DecodeGeneric(c, nil)
	for i := range src {
		if a[i] != b[i] || a[i] != c[i] {
			t.Fatalf("decode variants disagree at %d: %v %v %v", i, a[i], b[i], c[i])
		}
	}
}

func TestFindFirstEncoded(t *testing.T) {
	enc := []int64{11, 22, 33, 44}
	if got := findFirstEncoded(enc, nil); got != 11 {
		t.Fatalf("got %d, want 11", got)
	}
	if got := findFirstEncoded(enc, []uint16{0, 1}); got != 33 {
		t.Fatalf("got %d, want 33", got)
	}
	if got := findFirstEncoded(enc, []uint16{0, 1, 2, 3}); got != 0 {
		t.Fatalf("got %d, want 0 for all-exceptions", got)
	}
}

// TestExceptionPlaceholderKeepsWidthTight: the placeholder written into
// exception slots must not widen the packed integers.
func TestExceptionPlaceholderKeepsWidthTight(t *testing.T) {
	src := make([]float64, 1024)
	for i := range src {
		src[i] = 10.25 + float64(i%7)*0.25
	}
	src[100] = math.Pi    // exception
	src[500] = math.NaN() // exception
	v := EncodeVector(src, Combo{E: 2, F: 0}, nil)
	if v.Exceptions() != 2 {
		t.Fatalf("exceptions = %d, want 2", v.Exceptions())
	}
	if v.Ints.Width > 12 {
		t.Fatalf("FFOR width = %d; exceptions widened the packing", v.Ints.Width)
	}
	got := make([]float64, len(src))
	v.Decode(got, nil)
	for i := range src {
		if math.Float64bits(got[i]) != math.Float64bits(src[i]) {
			t.Fatalf("value %d: mismatch", i)
		}
	}
}

func TestQuickLossless(t *testing.T) {
	// ALP must be lossless on arbitrary bit patterns for any combo.
	f := func(raw []uint64, e8, f8 uint8) bool {
		e := e8 % (MaxExponent + 1)
		fa := f8 % (e + 1)
		src := make([]float64, len(raw))
		for i, b := range raw {
			src[i] = math.Float64frombits(b)
		}
		v := EncodeVector(src, Combo{E: e, F: fa}, nil)
		got := make([]float64, len(src))
		v.Decode(got, nil)
		for i := range src {
			if math.Float64bits(got[i]) != math.Float64bits(src[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLosslessDecimals(t *testing.T) {
	// Decimal-looking values must round trip via the full sampling path
	// with very few exceptions.
	f := func(ints []int32, prec8 uint8) bool {
		if len(ints) == 0 {
			return true
		}
		prec := int(prec8 % 8)
		scale := math.Pow(10, float64(prec))
		src := make([]float64, len(ints))
		for i, d := range ints {
			src[i] = float64(d%1_000_000) / scale
		}
		dec := SampleRowGroup(src)
		c, _ := ChooseForVector(src, dec.Combos)
		v := EncodeVector(src, c, nil)
		got := make([]float64, len(src))
		v.Decode(got, nil)
		for i := range src {
			if math.Float64bits(got[i]) != math.Float64bits(src[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSamplerSingleCombo(t *testing.T) {
	// Fixed two-decimal data: the whole row-group agrees on one combo,
	// so the second level must be skipped (tried == 0).
	r := rand.New(rand.NewSource(5))
	values := decimals(r, 8*1024, 2)
	dec := SampleRowGroup(values)
	if dec.UseRD {
		t.Fatal("decimal data must not switch to ALP_rd")
	}
	if len(dec.Combos) != 1 {
		t.Fatalf("combos = %v, want exactly one", dec.Combos)
	}
	_, tried := ChooseForVector(values[:1024], dec.Combos)
	if tried != 0 {
		t.Fatalf("second stage ran %d evaluations, want 0", tried)
	}
}

func TestSamplerDetectsRealDoubles(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	values := make([]float64, 8*1024)
	for i := range values {
		values[i] = r.Float64() * math.Pi / 180 // full-precision "POI-like" data
	}
	dec := SampleRowGroup(values)
	if !dec.UseRD {
		t.Fatalf("full-precision doubles must switch to ALP_rd (estimate %.1f bits/value)", dec.EstBitsPerValue)
	}
}

func TestComboCost(t *testing.T) {
	sample := []float64{1.25, 2.50, 3.75} // exact quarters: e=2, f=0 encodes 125, 250, 375
	cost, exc := comboCost(sample, Combo{E: 2, F: 0})
	if exc != 0 {
		t.Fatalf("exceptions = %d, want 0", exc)
	}
	wantWidth := 8 // max-min = 250 -> 8 bits
	if cost != 3*wantWidth {
		t.Fatalf("cost = %d, want %d", cost, 3*wantWidth)
	}
	_, exc = comboCost([]float64{math.NaN(), math.Inf(1)}, Combo{E: 14, F: 0})
	if exc != 2 {
		t.Fatalf("exceptions = %d, want 2", exc)
	}
}

func TestChooseForVectorEarlyExit(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	vec := decimals(r, 1024, 2)
	// First combo is the good one; the rest are bad. The early exit must
	// stop after two consecutive non-improvements: 1 (best) + 2 tried.
	combos := []Combo{{E: 2, F: 0}, {E: 21, F: 21}, {E: 0, F: 0}, {E: 1, F: 1}, {E: 3, F: 3}}
	got, tried := ChooseForVector(vec, combos)
	if got != combos[0] {
		t.Fatalf("chose %v, want %v", got, combos[0])
	}
	if tried != 3 {
		t.Fatalf("tried = %d, want 3 (early exit)", tried)
	}
}

func TestFindBestPrefersHighExponents(t *testing.T) {
	// All-integer data is encodable by every (e, e) combo; the tie-break
	// must pick the highest exponent/factor pair, mirroring Table 2:C12.
	sample := []float64{1, 2, 3, 4, 5, 100, 1000}
	best, _ := FindBest(sample)
	if best.E != best.F {
		t.Fatalf("best = %+v, want e == f for integers", best)
	}
	if best.E < 14 {
		t.Fatalf("best = %+v, want a high exponent on ties", best)
	}
}

// ---- float32 ----

func TestRoundTrip32Decimals(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	src := make([]float32, 1024)
	for i := range src {
		src[i] = float32(r.Intn(10000)) / 100
	}
	dec := SampleRowGroup(src)
	if dec.UseRD {
		t.Fatal("decimal float32 data must not switch to ALP_rd")
	}
	c, _ := ChooseForVector(src, dec.Combos)
	v := EncodeVector(src, c, nil)
	got := make([]float32, len(src))
	v.Decode(got, nil)
	for i := range src {
		if math.Float32bits(got[i]) != math.Float32bits(src[i]) {
			t.Fatalf("value %d: got %v, want %v", i, got[i], src[i])
		}
	}
	if v.SizeBits() >= 1024*32 {
		t.Fatalf("no compression achieved (%d bits)", v.SizeBits())
	}
}

func TestQuickLossless32(t *testing.T) {
	f := func(raw []uint32, e8, f8 uint8) bool {
		e := e8 % uint8(widthOf[float32]().maxExponent()+1)
		fa := f8 % (e + 1)
		src := make([]float32, len(raw))
		for i, b := range raw {
			src[i] = math.Float32frombits(b)
		}
		v := EncodeVector(src, Combo{E: e, F: fa}, nil)
		got := make([]float32, len(src))
		v.Decode(got, nil)
		for i := range src {
			if math.Float32bits(got[i]) != math.Float32bits(src[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSampler32DetectsWeights(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	values := make([]float32, 4096)
	for i := range values {
		values[i] = float32(r.NormFloat64()) * 0.02 // ML-weight-like
	}
	dec := SampleRowGroup(values)
	if !dec.UseRD {
		t.Fatalf("weight-like float32 data must switch to ALP_rd (estimate %.1f)", dec.EstBitsPerValue)
	}
}

// benchDecimals is the kernel benchmarks' input: 1024 2-decimal values.
func benchDecimals[T vector.Float]() []T {
	r := rand.New(rand.NewSource(10))
	src := make([]T, 1024)
	for i := range src {
		src[i] = T(r.Intn(1_000_000)) / 100
	}
	return src
}

func BenchmarkEncodeVector(b *testing.B) {
	b.Run("float64", benchEncodeVector[float64])
	b.Run("float32", benchEncodeVector[float32])
}

func benchEncodeVector[T vector.Float](b *testing.B) {
	src := benchDecimals[T]()
	scratch := make([]int64, 1024)
	b.SetBytes(int64(len(src)) * int64(vector.BitWidth[T]()/8))
	for i := 0; i < b.N; i++ {
		EncodeVector(src, Combo{E: 2, F: 0}, scratch)
	}
}

func BenchmarkDecodeVector(b *testing.B) {
	b.Run("float64", benchDecodeVector[float64])
	b.Run("float32", benchDecodeVector[float32])
}

func benchDecodeVector[T vector.Float](b *testing.B) {
	src := benchDecimals[T]()
	v := EncodeVector(src, Combo{E: 2, F: 0}, nil)
	dst := make([]T, 1024)
	scratch := make([]int64, 1024)
	b.SetBytes(int64(len(src)) * int64(vector.BitWidth[T]()/8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Decode(dst, scratch)
	}
}
