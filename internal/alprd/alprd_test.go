package alprd

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"github.com/goalp/alp/internal/bitpack"
	"github.com/goalp/alp/internal/vector"
)

// poiLike generates full-precision doubles in a narrow range, mimicking
// the POI coordinate datasets (radians) that drove ALP_rd's design.
func poiLike(r *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = (r.Float64()*180 - 90) * math.Pi / 180
	}
	return out
}

func roundTrip(t *testing.T, src []float64) (*Encoder, *Vector) {
	t.Helper()
	e := Sample(src)
	v := EncodeVector(e, src)
	got := make([]float64, len(src))
	DecodeVector(e, &v, got)
	for i := range src {
		if math.Float64bits(got[i]) != math.Float64bits(src[i]) {
			t.Fatalf("value %d: got %v (%#x), want %v (%#x)",
				i, got[i], math.Float64bits(got[i]), src[i], math.Float64bits(src[i]))
		}
	}
	return e, &v
}

func TestRoundTripPOI(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	src := poiLike(r, 1024)
	e, v := roundTrip(t, src)
	bits := float64(e.SizeBits(v)) / float64(len(src))
	if bits >= 64 {
		t.Fatalf("ALP_rd achieved no compression: %.1f bits/value", bits)
	}
	// The paper reports 55.5 and 56.4 bits/value on POI data; anything
	// meaningfully below 64 and above 48 is the expected regime.
	if bits < 48 {
		t.Logf("unexpectedly good ratio %.1f bits/value", bits)
	}
}

func TestRoundTripSpecials(t *testing.T) {
	src := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, math.Pi,
	}
	roundTrip(t, src)
}

func TestCutPosition(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	src := poiLike(r, 4096)
	e := Sample(src)
	minRight, maxRight := cutRange[float64]()
	if int(e.P) < minRight || int(e.P) > maxRight {
		t.Fatalf("cut position %d outside [%d, %d]", e.P, minRight, maxRight)
	}
	if len(e.Dict) == 0 || len(e.Dict) > 1<<MaxDictBits {
		t.Fatalf("dictionary size %d outside [1, 8]", len(e.Dict))
	}
	if e.CodeWidth > MaxDictBits {
		t.Fatalf("code width %d > %d", e.CodeWidth, MaxDictBits)
	}
}

func TestLowExceptionRateOnClusteredData(t *testing.T) {
	// All values share sign and exponent, so the left parts concentrate
	// on very few distinct values: exceptions must stay within the 10%
	// budget the dictionary was sized for.
	r := rand.New(rand.NewSource(3))
	src := make([]float64, 2048)
	for i := range src {
		src[i] = 1.0 + r.Float64() // exponent fixed at 1023
	}
	e := Sample(src)
	v := EncodeVector(e, src)
	if frac := float64(v.Exceptions()) / float64(v.N); frac > maxExceptionFrac+0.05 {
		t.Fatalf("exception rate %.2f exceeds budget", frac)
	}
	got := make([]float64, len(src))
	DecodeVector(e, &v, got)
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("value %d mismatch", i)
		}
	}
}

// newEncoderRebuildsIndex encodes through an encoder rebuilt from a
// sampled one's parameters, as a reader builds it: the lazily built
// index must encode what the sampled one does.
func newEncoderRebuildsIndex[T vector.Float](t *testing.T, src []T) {
	t.Helper()
	e := Sample(src)
	e2 := NewEncoder(e.P, e.CodeWidth, e.Dict)
	v := EncodeVector(e2, src)
	got := make([]T, len(src))
	DecodeVector(e2, &v, got)
	for i := range src {
		if vector.ToBits(got[i]) != vector.ToBits(src[i]) {
			t.Fatalf("%T value %d mismatch after encoder rebuild", src[i], i)
		}
	}
}

func TestNewEncoderRebuildsIndex(t *testing.T) {
	newEncoderRebuildsIndex(t, poiLike(rand.New(rand.NewSource(4)), 1024))
}

func TestNewEncoder32RebuildsIndex(t *testing.T) {
	newEncoderRebuildsIndex(t, weights(rand.New(rand.NewSource(6)), 1024))
}

// decodeVectorRef is the four-pass decode that DecodeVector replaced at
// both widths: unpack the right parts and the codes, translate the
// codes through the dictionary, patch the exceptions, glue
// left<<p | right, cut to T's width. It is the reference the one-pass
// decode must match bit for bit.
func decodeVectorRef[T vector.Float](e *Encoder, v *Vector, dst []T) {
	n := v.N
	rights := make([]uint64, n)
	codes := make([]uint64, n)
	lefts := make([]uint64, n)
	bitpack.Unpack(rights, v.RightWords, uint(e.P), 0)
	bitpack.Unpack(codes, v.CodeWords, e.CodeWidth, 0)
	for i, c := range codes {
		if int(c) < len(e.Dict) {
			lefts[i] = uint64(e.Dict[c])
		}
	}
	for k, pos := range v.ExcPos {
		lefts[pos] = uint64(v.ExcLeft[k])
	}
	for i := range dst {
		dst[i] = vector.FromBits[T](lefts[i]<<e.P | rights[i])
	}
}

// randomRDVector builds a vector of n rows straight from random parts:
// right parts of p bits, codes of cw bits (so codes past a short
// dictionary occur), and 16-bit exception left parts at excPos.
func randomRDVector(r *rand.Rand, n int, p uint8, cw uint, excPos []uint16) Vector {
	rights := make([]uint64, n)
	codes := make([]uint64, n)
	for i := range rights {
		rights[i] = r.Uint64() & (uint64(1)<<p - 1)
		codes[i] = r.Uint64() & (uint64(1)<<cw - 1)
	}
	v := Vector{N: n, ExcPos: excPos}
	v.RightWords = make([]uint64, bitpack.WordCount(n, uint(p)))
	bitpack.Pack(v.RightWords, rights, uint(p), 0)
	v.CodeWords = make([]uint64, bitpack.WordCount(n, cw))
	bitpack.Pack(v.CodeWords, codes, cw, 0)
	for range excPos {
		v.ExcLeft = append(v.ExcLeft, uint16(r.Uint32()))
	}
	return v
}

// decodeVectorMatchesReference checks the one-pass decode against the
// four-pass reference on randomized vectors: every length class around
// the 64-row block, every cut position T's sampler can choose plus 0
// and 1, every code width with dictionaries shorter than 2^width, and
// exceptions at the first, the last, adjacent and every row.
func decodeVectorMatchesReference[T vector.Float](t *testing.T, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	cuts := []uint8{0, 1}
	minRight, maxRight := cutRange[T]()
	for p := minRight; p <= maxRight; p++ {
		cuts = append(cuts, uint8(p))
	}
	for _, n := range []int{1, 63, 64, 65, 1000, 1024} {
		every := make([]uint16, n)
		for i := range every {
			every[i] = uint16(i)
		}
		k := uint16(r.Intn(n))
		patterns := map[string][]uint16{
			"none":     nil,
			"first":    {0},
			"last":     {uint16(n - 1)},
			"adjacent": slices.Compact([]uint16{k, min(k+1, uint16(n-1))}),
			"every":    every,
		}
		for _, p := range cuts {
			for cw := uint(0); cw <= MaxDictBits; cw++ {
				for dictLen := 0; dictLen <= 1<<cw; dictLen++ {
					dict := make([]uint16, dictLen)
					for i := range dict {
						dict[i] = uint16(r.Uint32())
					}
					e := NewEncoder(p, cw, dict)
					for name, exc := range patterns {
						v := randomRDVector(r, n, p, cw, exc)
						got := make([]T, n)
						want := make([]T, n)
						DecodeVector(e, &v, got)
						decodeVectorRef(e, &v, want)
						for i := range want {
							if vector.ToBits(got[i]) != vector.ToBits(want[i]) {
								t.Fatalf("%T n=%d p=%d cw=%d dict=%d exceptions=%s: row %d = %#x, want %#x",
									got[i], n, p, cw, dictLen, name, i, vector.ToBits(got[i]), vector.ToBits(want[i]))
							}
						}
					}
				}
			}
		}
	}
}

func TestDecodeVectorMatchesReference(t *testing.T) {
	decodeVectorMatchesReference[float64](t, 8)
	decodeVectorMatchesReference[float32](t, 12)
}

// TestDecodeVectorAllocatesNothing pins the decode to the stack: no
// per-row arrays, and no block of codes that escapes.
func TestDecodeVectorAllocatesNothing(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	src := poiLike(r, 1024)
	e := Sample(src)
	v := EncodeVector(e, src)
	dst := make([]float64, len(src))
	if allocs := testing.AllocsPerRun(20, func() { DecodeVector(e, &v, dst) }); allocs != 0 {
		t.Fatalf("DecodeVector allocates %.1f times per call", allocs)
	}
}

// sampleRef is Sample as it costed cuts before: a full encode index
// per candidate, counting the sampled values that miss it.
func sampleRef[T vector.Float](values []T) (p uint8, cw uint, dict []uint16) {
	sample := rowGroupSample(values)
	bestCost := math.MaxFloat64
	minRight, maxRight := cutRange[T]()
	for cut := minRight; cut <= maxRight; cut++ {
		enc, _ := buildEncoder(sample, uint8(cut))
		cost := 0.0
		if len(sample) > 0 {
			index := enc.encodeIndex()
			exc := 0
			for _, bits := range sample {
				if index[uint16(bits>>enc.P)] == 0 {
					exc++
				}
			}
			excFrac := float64(exc) / float64(len(sample))
			cost = float64(enc.P) + float64(enc.CodeWidth) + excFrac*32
		}
		if cost < bestCost {
			bestCost = cost
			p, cw, dict = enc.P, enc.CodeWidth, enc.Dict
		}
	}
	return p, cw, dict
}

// sampleCostsFromHitCounts checks that costing each cut from the
// dictionary's hit count picks what counting index misses picked, so
// encodings stay byte-identical.
func sampleCostsFromHitCounts[T vector.Float](t *testing.T, inputs [][]T) {
	t.Helper()
	for k, values := range inputs {
		e := Sample(values)
		p, cw, dict := sampleRef(values)
		if e.P != p || e.CodeWidth != cw || !slices.Equal(e.Dict, dict) {
			t.Fatalf("%T input %d: Sample chose p=%d cw=%d dict=%v, reference p=%d cw=%d dict=%v",
				T(0), k, e.P, e.CodeWidth, e.Dict, p, cw, dict)
		}
	}
}

// randomPatterns returns 20 inputs of up to 3000 random bit patterns of
// T, with a random number of high bits cleared so the left parts range
// from scattered to clustered.
func randomPatterns[T vector.Float](r *rand.Rand) [][]T {
	var inputs [][]T
	for k := 0; k < 20; k++ {
		raw := make([]T, 1+r.Intn(3000))
		for i := range raw {
			raw[i] = vector.FromBits[T](r.Uint64() >> (64 - vector.BitWidth[T]()) >> uint(r.Intn(12)))
		}
		inputs = append(inputs, raw)
	}
	return inputs
}

func TestSampleCostsFromHitCounts(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	sampleCostsFromHitCounts(t, append([][]float64{
		poiLike(r, 4096),
		{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.MaxFloat64, 5e-324},
		nil,
	}, randomPatterns[float64](r)...))
	sampleCostsFromHitCounts(t, append([][]float32{
		weights(r, 4096),
		{0, float32(math.Copysign(0, -1)), float32(math.NaN()), float32(math.Inf(1)), math.MaxFloat32, 1e-45},
		nil,
	}, randomPatterns[float32](r)...))
}

// encodeIndexConcurrentFirstUse encodes through a fresh decoding
// encoder from several goroutines at once: the lazily built index must
// be built once and give every caller the same vector.
func encodeIndexConcurrentFirstUse[T vector.Float](t *testing.T, src []T) {
	t.Helper()
	s := Sample(src)
	want := EncodeVector(s, src)
	e := NewEncoder(s.P, s.CodeWidth, s.Dict)
	var wg sync.WaitGroup
	got := make([]Vector, 4)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = EncodeVector(e, src)
		}()
	}
	wg.Wait()
	for g, v := range got {
		if !slices.Equal(v.RightWords, want.RightWords) || !slices.Equal(v.CodeWords, want.CodeWords) ||
			!slices.Equal(v.ExcPos, want.ExcPos) || !slices.Equal(v.ExcLeft, want.ExcLeft) {
			t.Fatalf("%T goroutine %d encoded a different vector", src[0], g)
		}
	}
}

func TestEncodeIndexConcurrentFirstUse(t *testing.T) {
	encodeIndexConcurrentFirstUse(t, poiLike(rand.New(rand.NewSource(11)), 1024))
	encodeIndexConcurrentFirstUse(t, weights(rand.New(rand.NewSource(13)), 1024))
}

func TestQuickLossless(t *testing.T) {
	f := func(raw []uint64) bool {
		src := make([]float64, len(raw))
		for i, b := range raw {
			src[i] = math.Float64frombits(b)
		}
		e := Sample(src)
		v := EncodeVector(e, src)
		got := make([]float64, len(src))
		DecodeVector(e, &v, got)
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

// ---- float32 ----

func weights(r *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(r.NormFloat64() * 0.05)
	}
	return out
}

func TestRoundTrip32Weights(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	src := weights(r, 4096)
	e := Sample(src)
	var total int
	for off := 0; off < len(src); off += 1024 {
		v := EncodeVector(e, src[off:off+1024])
		got := make([]float32, 1024)
		DecodeVector(e, &v, got)
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(src[off+i]) {
				t.Fatalf("value %d: got %v, want %v", off+i, got[i], src[off+i])
			}
		}
		total += e.SizeBits(&v)
	}
	bits := float64(total) / float64(len(src))
	if bits >= 32 {
		t.Fatalf("ALP_rd-32 achieved no compression on weights: %.1f bits/value", bits)
	}
	// Paper Table 7: ~28 bits/value on model weights.
	if bits > 31 {
		t.Errorf("ratio %.1f bits/value, expected around 28", bits)
	}
}

func TestQuickLossless32(t *testing.T) {
	f := func(raw []uint32) bool {
		src := make([]float32, len(raw))
		for i, b := range raw {
			src[i] = math.Float32frombits(b)
		}
		e := Sample(src)
		v := EncodeVector(e, src)
		got := make([]float32, len(src))
		DecodeVector(e, &v, got)
		for i := range src {
			if math.Float32bits(got[i]) != math.Float32bits(src[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeVectorRD(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	src := poiLike(r, 1024)
	e := Sample(src)
	b.SetBytes(1024 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodeVector(e, src)
	}
}

func BenchmarkDecodeVectorRD(b *testing.B) {
	b.Run("float64", func(b *testing.B) { benchDecodeVectorRD(b, poiLike(rand.New(rand.NewSource(7)), 1024)) })
	b.Run("float32", func(b *testing.B) { benchDecodeVectorRD(b, weights(rand.New(rand.NewSource(7)), 1024)) })
}

func benchDecodeVectorRD[T vector.Float](b *testing.B, src []T) {
	e := Sample(src)
	v := EncodeVector(e, src)
	dst := make([]T, len(src))
	b.SetBytes(int64(len(src)) * int64(vector.BitWidth[T]()/8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DecodeVector(e, &v, dst)
	}
}
