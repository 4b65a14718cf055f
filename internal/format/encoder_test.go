package format

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/iotest"

	"github.com/goalp/alp/internal/vector"
)

// encoderLengths are the vector- and row-group-boundary lengths the
// encoder tests cut streams at.
var encoderLengths = []int{0, 1, 1023, 1024, 1025, vector.RowGroupSize - 1, vector.RowGroupSize, vector.RowGroupSize + 1, 3*vector.RowGroupSize + 77}

// mixedValues is a column whose row-groups alternate between decimals
// (ALP, with exceptions) and real doubles (ALP_rd).
func mixedValues(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		if (i/vector.RowGroupSize)%2 == 1 {
			out[i] = rng.NormFloat64()
			continue
		}
		out[i] = math.Round(rng.Float64()*1e5) / 100
		if rng.Intn(200) == 0 {
			out[i] = rng.Float64()
		}
	}
	return out
}

func leBytes(values []float64) []byte {
	out := make([]byte, 0, 8*len(values))
	for _, x := range values {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
	}
	return out
}

// TestEncoderMatchesEncodeColumn: every way of feeding the encoder —
// Write in chunks that straddle vectors and row-groups, or ReadFrom
// through readers that split values — at any worker count yields the
// column EncodeColumn builds, byte for byte once marshaled.
func TestEncoderMatchesEncodeColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range encoderLengths {
		values := mixedValues(rng, n)
		want := EncodeColumn(values).Marshal()
		body := leBytes(values)
		for _, workers := range []int{1, 3} {
			e := NewEncoder(workers, nil)
			for off := 0; off < n; off += 9973 {
				e.Write(values[off:min(off+9973, n)])
			}
			if e.Len() != n {
				t.Fatalf("n=%d workers=%d: Len = %d", n, workers, e.Len())
			}
			if got := e.Close().Marshal(); !bytes.Equal(got, want) {
				t.Fatalf("n=%d workers=%d: Write stream differs from EncodeColumn", n, workers)
			}
			readers := map[string]io.Reader{
				"whole":   bytes.NewReader(body),
				"onebyte": iotest.OneByteReader(bytes.NewReader(body)),
				"half":    iotest.HalfReader(bytes.NewReader(body)),
			}
			for name, r := range readers {
				if n > 2*vector.RowGroupSize && name == "onebyte" {
					continue // millions of one-byte reads prove nothing more
				}
				e := NewEncoder(workers, nil)
				got, err := e.ReadFrom(r)
				if err != nil || got != int64(len(body)) {
					t.Fatalf("n=%d workers=%d %s: ReadFrom = (%d, %v), want (%d, nil)", n, workers, name, got, err, len(body))
				}
				if out := e.Close().Marshal(); !bytes.Equal(out, want) {
					t.Fatalf("n=%d workers=%d %s: ReadFrom stream differs from EncodeColumn", n, workers, name)
				}
			}
		}
	}
}

// TestEncoderReadFromPartialValue: input ending inside a float64 is
// ErrPartialValue, with the byte count read so far.
func TestEncoderReadFromPartialValue(t *testing.T) {
	for _, n := range []int{3, 8*vector.RowGroupSize + 5} {
		e := NewEncoder(2, nil)
		got, err := e.ReadFrom(iotest.HalfReader(bytes.NewReader(make([]byte, n))))
		if !errors.Is(err, ErrPartialValue) || got != int64(n) {
			t.Fatalf("%d bytes: ReadFrom = (%d, %v), want (%d, ErrPartialValue)", n, got, err, n)
		}
		e.Abort()
		if e.Close() != nil {
			t.Fatalf("%d bytes: Close after Abort returned a column", n)
		}
	}
	e := NewEncoder(1, nil)
	boom := errors.New("boom")
	if _, err := e.ReadFrom(iotest.ErrReader(boom)); !errors.Is(err, boom) {
		t.Fatalf("ReadFrom error = %v, want the reader's", err)
	}
	e.Abort()
}

// TestEncoderCloseAndAbort pins the lifecycle: a second Close returns
// nil, Abort after Close is a no-op, and Write after either panics.
func TestEncoderCloseAndAbort(t *testing.T) {
	e := NewEncoder(2, nil)
	e.Write(make([]float64, vector.RowGroupSize+1))
	if col := e.Close(); col == nil || col.N != vector.RowGroupSize+1 {
		t.Fatalf("Close = %+v", col)
	}
	e.Abort()
	if e.Close() != nil {
		t.Fatal("second Close returned a column")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Write after Close did not panic")
		}
	}()
	e.Write([]float64{1})
}

// TestMarshalExactCapacity: Marshal allocates the stream once, at its
// exact length, for both widths, both schemes and with exceptions.
func TestMarshalExactCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	values := mixedValues(rng, 3*vector.RowGroupSize+555)
	col := EncodeColumn(values)
	if !col.UsedRD() || col.Exceptions() == 0 {
		t.Fatal("test column must hold ALP_rd row-groups and exceptions")
	}
	if out := col.Marshal(); cap(out) != len(out) {
		t.Errorf("Column.Marshal: cap %d, len %d", cap(out), len(out))
	}
	col.Zones = nil
	if out := col.Marshal(); cap(out) != len(out) {
		t.Errorf("Column.Marshal without zone map: cap %d, len %d", cap(out), len(out))
	}
	f32 := make([]float32, len(values))
	for i, x := range values {
		f32[i] = float32(x)
	}
	if out := EncodeColumn32(f32).Marshal(); cap(out) != len(out) {
		t.Errorf("Column32.Marshal: cap %d, len %d", cap(out), len(out))
	}
}

// referenceZoneMap is BuildZoneMap as it was written before the NaN
// branch went: the bits it produces are the contract.
func referenceZoneMap(values []float64) *ZoneMap {
	nv := vector.VectorsIn(len(values))
	zm := &ZoneMap{Min: make([]float64, nv), Max: make([]float64, nv), HasValues: make([]bool, nv)}
	for v := 0; v < nv; v++ {
		lo, hi := vector.Bounds(v, len(values))
		min, max := math.Inf(1), math.Inf(-1)
		any := false
		for _, x := range values[lo:hi] {
			if math.IsNaN(x) {
				continue
			}
			any = true
			if x < min {
				min = x
			}
			if x > max {
				max = x
			}
		}
		zm.Min[v], zm.Max[v], zm.HasValues[v] = min, max, any
	}
	return zm
}

// TestZoneMapMatchesReference: the zone map has the reference loop's
// bits on NaN payloads, ±0 in both orders, ±Inf, all-NaN vectors and
// single-value vectors, fixed and randomized.
func TestZoneMapMatchesReference(t *testing.T) {
	nan := func(payload uint64) float64 { return math.Float64frombits(0x7ff0000000000000 | payload) }
	negZero := math.Copysign(0, -1)
	specials := []float64{nan(1), nan(0x8000000000000), -nan(42), 0, negZero, math.Inf(1), math.Inf(-1), 1.5, -2.25}
	cases := [][]float64{
		{}, {nan(7)}, {0}, {negZero}, {math.Inf(1)}, {math.Inf(-1)}, {3.5},
		{0, negZero}, {negZero, 0}, {nan(3), negZero, 0}, {nan(3), 0, negZero},
		{math.Inf(1), math.Inf(1)}, {math.Inf(-1), nan(9), math.Inf(-1)},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		n := 1 + rng.Intn(3*vector.Size)
		vals := make([]float64, n)
		for j := range vals {
			switch k := rng.Intn(10); {
			case k < 4:
				vals[j] = specials[rng.Intn(len(specials))]
			case k < 5:
				vals[j] = nan(1 + rng.Uint64()&(1<<52-2))
			default:
				vals[j] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(20)-10))
			}
		}
		if rng.Intn(4) == 0 { // an all-NaN vector
			lo, hi := vector.Bounds(rng.Intn(vector.VectorsIn(n)), n)
			for j := lo; j < hi; j++ {
				vals[j] = nan(uint64(j) + 1)
			}
		}
		cases = append(cases, vals)
	}
	for _, vals := range cases {
		got, want := BuildZoneMap(vals), referenceZoneMap(vals)
		for v := range want.Min {
			if math.Float64bits(got.Min[v]) != math.Float64bits(want.Min[v]) ||
				math.Float64bits(got.Max[v]) != math.Float64bits(want.Max[v]) ||
				got.HasValues[v] != want.HasValues[v] {
				t.Fatalf("%d values, vector %d: got (%v, %v, %v), want (%v, %v, %v)", len(vals), v,
					got.Min[v], got.Max[v], got.HasValues[v], want.Min[v], want.Max[v], want.HasValues[v])
			}
		}
	}
}

func BenchmarkBuildZoneMap(b *testing.B) {
	values := mixedValues(rand.New(rand.NewSource(3)), 4*vector.RowGroupSize)
	b.SetBytes(int64(8 * len(values)))
	for i := 0; i < b.N; i++ {
		BuildZoneMap(values)
	}
}
