package alpenc

import (
	"math"
	"math/rand"
	"testing"

	"github.com/goalp/alp/internal/fastlanes"
	"github.com/goalp/alp/internal/vector"
)

// filterVectorOracle evaluates the predicate over the original values.
func filterVectorOracle[T vector.Float](values []T, lo, hi T) ([]uint64, int) {
	sel := make([]uint64, fastlanes.SelWords(len(values)))
	count := 0
	for i, x := range values {
		if x >= lo && x <= hi {
			sel[i>>6] |= 1 << uint(i&63)
			count++
		}
	}
	return sel, count
}

// checkVectorFilter encodes values under c (no sampling, so tests
// control the (e, f) pressure) and checks Filter and GatherSelected
// against the oracle, bit for bit.
func checkVectorFilter[T vector.Float](t *testing.T, values []T, c Combo, lo, hi T) {
	t.Helper()
	v := EncodeVector(values, c, nil)
	sel := make([]uint64, fastlanes.SelWords(len(values)))
	scratch := make([]int64, len(values))
	got := v.Filter(lo, hi, sel, scratch)
	wantSel, want := filterVectorOracle(values, lo, hi)
	if got != want {
		t.Fatalf("%T Filter([%v, %v]) count = %d, want %d (combo e=%d f=%d, %d exceptions)",
			lo, lo, hi, got, want, c.E, c.F, v.Exceptions())
	}
	for i := range wantSel {
		if sel[i] != wantSel[i] {
			t.Fatalf("%T Filter([%v, %v]) sel[%d] = %016x, want %016x", lo, lo, hi, i, sel[i], wantSel[i])
		}
	}
	// Gather must reproduce the qualifying values bit-exactly, in order.
	dst := make([]T, len(values))
	n := v.GatherSelected(sel, scratch, dst)
	if n != want {
		t.Fatalf("GatherSelected wrote %d values, want %d", n, want)
	}
	j := 0
	for i, x := range values {
		if x >= lo && x <= hi {
			if vector.ToBits(dst[j]) != vector.ToBits(x) {
				t.Fatalf("%T gathered[%d] = %x, want values[%d] = %x",
					x, j, vector.ToBits(dst[j]), i, vector.ToBits(x))
			}
			j++
		}
	}
}

// encodedRangeBoundaries checks, for each combo and random bounds, that
// the binary-searched boundaries are exact: dec(dlo) >= lo,
// dec(dlo-1) < lo, and symmetrically for dhi.
func encodedRangeBoundaries[T vector.Float](t *testing.T, combos []Combo) {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	w := widthOf[T]()
	limit := int64(w.limit)
	for _, c := range combos {
		df, de := w.f10[c.F], w.if10[c.E]
		for trial := 0; trial < 200; trial++ {
			lo := T((r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(10))))
			hi := lo + T(r.Float64()*math.Pow(10, float64(r.Intn(8))))
			dlo, dhi, ok := EncodedRange(lo, hi, c.E, c.F)
			if !ok {
				continue
			}
			if got := decodeOne(dlo, df, de); got < lo {
				t.Fatalf("%T combo %v: dec(dlo=%d) = %v < lo = %v", lo, c, dlo, got, lo)
			}
			if dlo > -limit {
				if got := decodeOne(dlo-1, df, de); got >= lo {
					t.Fatalf("%T combo %v: dec(dlo-1=%d) = %v >= lo = %v (dlo not minimal)", lo, c, dlo-1, got, lo)
				}
			}
			if got := decodeOne(dhi, df, de); got > hi {
				t.Fatalf("%T combo %v: dec(dhi=%d) = %v > hi = %v", lo, c, dhi, got, hi)
			}
			if dhi < limit {
				if got := decodeOne(dhi+1, df, de); got <= hi {
					t.Fatalf("%T combo %v: dec(dhi+1=%d) = %v <= hi = %v (dhi not maximal)", lo, c, dhi+1, got, hi)
				}
			}
		}
	}
}

func TestEncodedRangeMonotoneBoundaries(t *testing.T) {
	encodedRangeBoundaries[float64](t, []Combo{{E: 0, F: 0}, {E: 2, F: 1}, {E: 14, F: 12}, {E: 21, F: 0}, {E: 21, F: 21}, {E: 5, F: 5}})
	encodedRangeBoundaries[float32](t, []Combo{{E: 0, F: 0}, {E: 2, F: 1}, {E: 8, F: 6}, {E: 10, F: 0}, {E: 10, F: 10}, {E: 5, F: 5}})
}

func TestVectorFilterDecimals(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	values := make([]float64, 1024)
	for i := range values {
		values[i] = float64(r.Intn(100000)) / 100 // 2-decimal prices
	}
	c := Combo{E: 2, F: 0}
	bounds := [][2]float64{
		{100, 200},
		{0, 999.99},
		{500.25, 500.25}, // point predicate
		{-10, -1},        // nothing
		{999, 2000},      // upper tail
		{values[0], values[0]},
		{math.Inf(-1), math.Inf(1)}, // everything
		{math.Inf(-1), 250},
		{250, math.Inf(1)},
	}
	for _, b := range bounds {
		checkVectorFilter(t, values, c, b[0], b[1])
	}
}

// vectorFilterExceptions filters 2-decimal values sprinkled with
// exception-forcing values: specials, an undecodable real and big, a
// finite value far beyond the encodable range.
func vectorFilterExceptions[T vector.Float](t *testing.T, big T) {
	t.Helper()
	r := rand.New(rand.NewSource(13))
	values := make([]T, 1024)
	for i := range values {
		values[i] = T(r.Intn(10000)) / 100
	}
	inf := T(math.Inf(1))
	values[0] = T(math.NaN())
	values[1] = inf
	values[2] = -inf
	values[3] = T(math.Copysign(0, -1))
	values[4] = math.Pi
	values[511] = big
	values[1023] = T(math.NaN())
	c := Combo{E: 2, F: 0}
	bounds := [][2]T{
		{0, 50},
		{-inf, inf},     // everything except NaN
		{inf, inf},      // only +Inf
		{-inf, -inf},    // only -Inf
		{0, 0},          // +0.0 and -0.0 both match
		{3, 4},          // catches pi via exception patching
		{big / 10, inf}, // catches big and +Inf
	}
	for _, b := range bounds {
		checkVectorFilter(t, values, c, b[0], b[1])
	}
}

func TestVectorFilterExceptions(t *testing.T) {
	vectorFilterExceptions[float64](t, 1e300)
	vectorFilterExceptions[float32](t, 1e30)
}

func TestVectorFilterAllExceptions(t *testing.T) {
	// A vector that is 100% exceptions: every slot holds the placeholder
	// integer, so correctness depends entirely on patching.
	values := make([]float64, 300)
	for i := range values {
		if i%2 == 0 {
			values[i] = math.NaN()
		} else {
			values[i] = math.Sqrt2 * float64(i)
		}
	}
	c := Combo{E: 0, F: 0}
	checkVectorFilter(t, values, c, 0, 1000)
	checkVectorFilter(t, values, c, math.Inf(-1), math.Inf(1))
	checkVectorFilter(t, values, c, 5, 5)

	allNaN := make([]float64, 128)
	for i := range allNaN {
		allNaN[i] = math.NaN()
	}
	checkVectorFilter(t, allNaN, c, math.Inf(-1), math.Inf(1))
	checkVectorFilter(t, allNaN, c, 0, 0)
}

// boundsOutsideEncodableRange filters with bounds far beyond the
// encodable range (huge near T's largest finite value, big beyond
// ±limit in the encoded domain): the translation must clamp, not
// overflow.
func boundsOutsideEncodableRange[T vector.Float](t *testing.T, big, huge T) {
	t.Helper()
	values := []T{1.5, 2.5, 3.5, 4.5}
	c := Combo{E: 1, F: 0}
	checkVectorFilter(t, values, c, -huge, huge)
	checkVectorFilter(t, values, c, big, huge)
	checkVectorFilter(t, values, c, -huge, -big)
}

func TestVectorFilterBoundsOutsideEncodableRange(t *testing.T) {
	boundsOutsideEncodableRange[float64](t, 1e300, 1e308)
	boundsOutsideEncodableRange[float32](t, 1e30, 3e38)
}
