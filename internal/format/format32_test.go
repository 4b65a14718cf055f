package format

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"github.com/goalp/alp/internal/dataset"
	"github.com/goalp/alp/internal/vector"
)

func decimals32(r *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(r.Intn(10000)) / 100
	}
	return out
}

func TestColumn32RoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	src := decimals32(r, vector.RowGroupSize+7777)
	c := EncodeColumn32(src)
	got := c.Decode()
	for i := range src {
		if math.Float32bits(got[i]) != math.Float32bits(src[i]) {
			t.Fatalf("value %d: got %v, want %v", i, got[i], src[i])
		}
	}
	if c.UsedRD() {
		t.Fatal("decimal float32 must not use RD")
	}
	if c.BitsPerValue() >= 32 {
		t.Fatalf("no compression: %.1f bits/value", c.BitsPerValue())
	}
}

func TestColumn32MarshalRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, src := range [][]float32{
		decimals32(r, 5000),
		dataset.Weights32(r, vector.RowGroupSize+99), // RD path
	} {
		c := EncodeColumn32(src)
		data := c.Marshal()
		c2, err := Unmarshal32(data)
		if err != nil {
			t.Fatal(err)
		}
		got := c2.Decode()
		for i := range src {
			if math.Float32bits(got[i]) != math.Float32bits(src[i]) {
				t.Fatalf("value %d mismatch after marshal round trip", i)
			}
		}
	}
}

func TestColumn32VectorAccess(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	src := decimals32(r, 5000)
	c := EncodeColumn32(src)
	buf := make([]float32, vector.Size)
	scratch := make([]int64, vector.Size)
	for vi := 0; vi < c.NumVectors(); vi++ {
		n := c.DecodeVector(vi, buf, scratch)
		lo, hi := vector.Bounds(vi, len(src))
		if n != hi-lo {
			t.Fatalf("vector %d: n = %d, want %d", vi, n, hi-lo)
		}
		for i := 0; i < n; i++ {
			if math.Float32bits(buf[i]) != math.Float32bits(src[lo+i]) {
				t.Fatalf("vector %d value %d mismatch", vi, i)
			}
		}
	}
}

func TestUnmarshal32RejectsCorruption(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	data := EncodeColumn32(decimals32(r, 3000)).Marshal()
	if _, err := Unmarshal32(nil); err == nil {
		t.Fatal("want error on empty input")
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xff
	if _, err := Unmarshal32(bad); err == nil {
		t.Fatal("want error on bad magic")
	}
	for _, cut := range []int{10, len(data) / 2, len(data) - 1} {
		if _, err := Unmarshal32(data[:cut]); err == nil {
			t.Fatalf("want error on truncation at %d", cut)
		}
	}
	// A 64-bit stream must be rejected by the 32-bit parser.
	data64 := EncodeColumn([]float64{1.5}).Marshal()
	if _, err := Unmarshal32(data64); err == nil {
		t.Fatal("want error on 64-bit magic")
	}

	// Exception positions out of order, which the encoder never writes:
	// the float32 reader must reject them as the float64 one does.
	src := decimals32(r, 3000)
	src[1], src[3] = float32(math.NaN()), float32(math.Inf(1))
	alp := EncodeColumn32(src)
	v := &alp.RowGroups[0].Vectors[0]
	if len(v.ExcPos) < 2 || v.ExcPos[0] != 1 || v.ExcPos[1] != 3 {
		t.Fatalf("ALP vector exceptions at %v, want 1 and 3 first", v.ExcPos)
	}
	v.ExcPos[0], v.ExcPos[1] = 3, 1
	v.ExcVals[0], v.ExcVals[1] = v.ExcVals[1], v.ExcVals[0]
	if _, err := Unmarshal32(alp.Marshal()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ALP exception positions [3 1]: err = %v, want ErrCorrupt", err)
	}
	rd := EncodeColumn32(dataset.Weights32(r, 3000))
	if !rd.UsedRD() {
		t.Fatal("weights did not sample to ALP_rd")
	}
	w := &rd.RowGroups[0].RDVectors[0]
	w.ExcPos, w.ExcLeft = []uint16{5, 5}, []uint16{0, 0}
	if _, err := Unmarshal32(rd.Marshal()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ALP_rd exception positions [5 5]: err = %v, want ErrCorrupt", err)
	}
}

// TestUnmarshal32RDAllocations parses one full row-group of ALP_rd
// weights: the reader allocates the parsed payload and little else, no
// encode index per row-group.
func TestUnmarshal32RDAllocations(t *testing.T) {
	col := EncodeColumn32(dataset.Weights32(rand.New(rand.NewSource(5)), vector.RowGroupSize))
	if !col.UsedRD() {
		t.Fatal("weights did not sample to ALP_rd")
	}
	data := col.Marshal()
	const calls = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < calls; k++ {
		if _, err := Unmarshal32(data); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; float64(perCall) >= 1.2*float64(len(data)) {
		t.Fatalf("Unmarshal32 of a %d-byte ALP_rd stream allocates %d bytes (%.2fx)",
			len(data), perCall, float64(perCall)/float64(len(data)))
	}
}

func TestQuickColumn32RoundTrip(t *testing.T) {
	f := func(raw []uint32) bool {
		src := make([]float32, len(raw))
		for i, b := range raw {
			src[i] = math.Float32frombits(b)
		}
		c := EncodeColumn32(src)
		data := c.Marshal()
		c2, err := Unmarshal32(data)
		if err != nil {
			return false
		}
		got := c2.Decode()
		for i := range src {
			if math.Float32bits(got[i]) != math.Float32bits(src[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestColumn32Empty(t *testing.T) {
	c := EncodeColumn32(nil)
	if c.N != 0 || len(c.Decode()) != 0 {
		t.Fatal("empty column must stay empty")
	}
	c2, err := Unmarshal32(c.Marshal())
	if err != nil || c2.N != 0 {
		t.Fatalf("empty marshal round trip: %v", err)
	}
}
