package format

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/goalp/alp/internal/dataset"
	"github.com/goalp/alp/internal/vector"
)

func roundTrip(t *testing.T, src []float64) *Column {
	t.Helper()
	c := EncodeColumn(src)
	got := c.Decode()
	if len(got) != len(src) {
		t.Fatalf("decoded %d values, want %d", len(got), len(src))
	}
	for i := range src {
		if math.Float64bits(got[i]) != math.Float64bits(src[i]) {
			t.Fatalf("value %d: got %v, want %v", i, got[i], src[i])
		}
	}
	return c
}

func TestEncodeDecodeColumn(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	src := make([]float64, 2*vector.RowGroupSize+5000) // 3 row-groups, last partial
	for i := range src {
		src[i] = float64(r.Intn(100000)) / 100
	}
	c := roundTrip(t, src)
	if c.UsedRD() {
		t.Fatal("decimal data must not use ALP_rd")
	}
	if bpv := c.BitsPerValue(); bpv >= 30 {
		t.Fatalf("bits/value = %.1f, want strong compression on 2-decimal data", bpv)
	}
}

func TestColumnPicksRDPerRowGroup(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	// First row-group decimal, second full-precision: the scheme choice
	// is per row-group.
	src := make([]float64, 2*vector.RowGroupSize)
	for i := 0; i < vector.RowGroupSize; i++ {
		src[i] = float64(r.Intn(10000)) / 10
	}
	for i := vector.RowGroupSize; i < len(src); i++ {
		src[i] = r.Float64() * math.Pi
	}
	c := roundTrip(t, src)
	if c.RowGroups[0].Scheme != SchemeALP {
		t.Fatal("row-group 0 must use ALP")
	}
	if c.RowGroups[1].Scheme != SchemeRD {
		t.Fatal("row-group 1 must use ALP_rd")
	}
	if SchemeALP.String() != "ALP" || SchemeRD.String() != "ALP_rd" {
		t.Fatal("scheme names wrong")
	}
}

func TestDecodeVectorRandomAccess(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	src := make([]float64, vector.RowGroupSize+3000)
	for i := range src {
		src[i] = float64(r.Intn(1000000)) / 1000
	}
	c := EncodeColumn(src)
	buf := make([]float64, vector.Size)
	scratch := make([]int64, vector.Size)
	for _, vi := range []int{0, 7, 99, 100, c.NumVectors() - 1} {
		n := c.DecodeVector(vi, buf, scratch)
		lo, hi := vector.Bounds(vi, len(src))
		if n != hi-lo {
			t.Fatalf("vector %d: n = %d, want %d", vi, n, hi-lo)
		}
		for i := 0; i < n; i++ {
			if math.Float64bits(buf[i]) != math.Float64bits(src[lo+i]) {
				t.Fatalf("vector %d value %d mismatch", vi, i)
			}
		}
	}
}

func TestMarshalUnmarshal(t *testing.T) {
	for _, name := range []string{"City-Temp", "POI-lat", "Gov/26", "CMS/25"} {
		d, ok := dataset.ByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		src := d.Generate(vector.RowGroupSize + 4321)
		c := EncodeColumn(src)
		data := c.Marshal()
		c2, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		got := c2.Decode()
		for i := range src {
			if math.Float64bits(got[i]) != math.Float64bits(src[i]) {
				t.Fatalf("%s: value %d mismatch after marshal round trip", name, i)
			}
		}
	}
}

func TestMarshalSizeMatchesSizeBits(t *testing.T) {
	d, _ := dataset.ByName("Stocks-USA")
	src := d.Generate(vector.RowGroupSize)
	c := EncodeColumn(src)
	data := c.Marshal()
	// SizeBits is the analytic accounting; Marshal has byte-alignment
	// padding per field. They must agree within a few percent.
	ratio := float64(len(data)*8) / float64(c.SizeBits())
	if ratio < 0.95 || ratio > 1.15 {
		t.Fatalf("marshalled %d bits vs SizeBits %d (ratio %.2f)", len(data)*8, c.SizeBits(), ratio)
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	d, _ := dataset.ByName("City-Temp")
	src := d.Generate(4096)
	data := EncodeColumn(src).Marshal()

	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("want error on empty input")
	}
	if _, err := Unmarshal(data[:7]); err == nil {
		t.Fatal("want error on truncated header")
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xff
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("want error on bad magic")
	}
	for _, cut := range []int{20, len(data) / 2, len(data) - 1} {
		if _, err := Unmarshal(data[:cut]); err == nil {
			t.Fatalf("want error on truncation at %d", cut)
		}
	}
}

func TestUnmarshalRejectsBadFields(t *testing.T) {
	d, _ := dataset.ByName("City-Temp")
	src := d.Generate(2048)
	data := EncodeColumn(src).Marshal()
	// Corrupt the scheme byte of the first row-group (offset 16).
	bad := append([]byte(nil), data...)
	bad[16] = 9
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("want error on unknown scheme")
	}
}

func TestSum(t *testing.T) {
	src := []float64{1.5, 2.5, -1.0, 10.25}
	c := EncodeColumn(src)
	if got := c.Sum(); got != 13.25 {
		t.Fatalf("Sum = %v, want 13.25", got)
	}
}

func TestEmptyColumn(t *testing.T) {
	c := EncodeColumn(nil)
	if c.N != 0 || c.NumVectors() != 0 {
		t.Fatal("empty column must be empty")
	}
	if got := c.Decode(); len(got) != 0 {
		t.Fatal("empty decode must be empty")
	}
	data := c.Marshal()
	c2, err := Unmarshal(data)
	if err != nil || c2.N != 0 {
		t.Fatalf("empty marshal round trip: %v", err)
	}
}

func TestQuickColumnRoundTrip(t *testing.T) {
	f := func(raw []uint64) bool {
		src := make([]float64, len(raw))
		for i, b := range raw {
			src[i] = math.Float64frombits(b)
		}
		c := EncodeColumn(src)
		got := c.Decode()
		for i := range src {
			if math.Float64bits(got[i]) != math.Float64bits(src[i]) {
				return false
			}
		}
		data := c.Marshal()
		c2, err := Unmarshal(data)
		if err != nil {
			return false
		}
		got2 := c2.Decode()
		for i := range src {
			if math.Float64bits(got2[i]) != math.Float64bits(src[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSamplingOverheadStats(t *testing.T) {
	d, _ := dataset.ByName("City-Temp")
	src := d.Generate(vector.RowGroupSize)
	c := EncodeColumn(src)
	rg := c.RowGroups[0]
	if rg.Scheme != SchemeALP {
		t.Fatal("City-Temp must use ALP")
	}
	if len(rg.SecondStageTried) != len(rg.Vectors) {
		t.Fatal("second-stage stats missing")
	}
}

// TestRegularSeriesEncodeCompactly: equidistant sampling takes every
// 32nd value of a vector, so on a series spaced 1/4 apart every sampled
// value is an integer, the vector's combination encodes integers only,
// and three values in four become exceptions — more bits per value
// than raw doubles. The encoder must notice the exceptions and re-pick
// the combination from an odd-strided sample.
func TestRegularSeriesEncodeCompactly(t *testing.T) {
	const n = 250_000
	series := []struct {
		name string
		f    func(i int) float64
	}{
		{"i*0.25", func(i int) float64 { return float64(i) * 0.25 }},
		{"i*0.5", func(i int) float64 { return float64(i) * 0.5 }},
		{"i/8", func(i int) float64 { return float64(i) / 8 }},
		{"(i%1000)*0.25", func(i int) float64 { return float64(i%1000) * 0.25 }},
		{"(i%100)*0.25", func(i int) float64 { return float64(i%100) * 0.25 }},
		{"1e9+i*0.25", func(i int) float64 { return 1e9 + float64(i)*0.25 }},
	}
	for _, s := range series {
		src := make([]float64, n)
		for i := range src {
			src[i] = s.f(i)
		}
		c := roundTrip(t, src)
		t.Logf("%s: %.2f bits/value", s.name, c.BitsPerValue())
		if c.BitsPerValue() > 32 {
			t.Errorf("%s: %.2f bits/value, want at most 32", s.name, c.BitsPerValue())
		}
	}
	src := make([]float32, n)
	for i := range src {
		src[i] = float32(i) * 0.25
	}
	c := EncodeColumn32(src)
	for i, v := range c.Decode() {
		if math.Float32bits(v) != math.Float32bits(src[i]) {
			t.Fatalf("float32 i*0.25: value %d decoded %v, want %v", i, v, src[i])
		}
	}
	t.Logf("float32 i*0.25: %.2f bits/value", c.BitsPerValue())
	if c.BitsPerValue() > 32 {
		t.Errorf("float32 i*0.25: %.2f bits/value, want at most 32", c.BitsPerValue())
	}
}
