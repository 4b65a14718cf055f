package alp

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden fixtures from the current encoder")

// goldenDecimals synthesizes a decimal-heavy column deterministically
// (no PRNG, so the fixture generator can never drift): varied two-digit
// decimals with hand-placed specials, long enough to span vector
// boundaries and end on a partial vector. First-level sampling picks
// SchemeALP for this shape.
func goldenDecimals(n int) []float64 {
	values := make([]float64, n)
	for i := range values {
		values[i] = float64((i*7919)%100000) / 100
	}
	if n > 40 {
		values[7] = math.Float64frombits(0x7FF8DEADBEEF0001) // NaN payload
		values[11] = math.Inf(1)
		values[23] = math.Inf(-1)
		values[31] = math.Copysign(0, -1)
		values[37] = 5e-324 // subnormal
	}
	return values
}

// goldenRealDoubles uses a fixed xorshift64 stream of raw bit patterns:
// full-precision doubles the decimal scheme cannot represent, forcing
// SchemeRD.
func goldenRealDoubles(n int) []float64 {
	values := make([]float64, n)
	s := uint64(0x9E3779B97F4A7C15)
	for i := range values {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		values[i] = math.Float64frombits(s &^ (0x7FF << 52)) // clear exponent: finite, subnormal-range
	}
	return values
}

func goldenDecimals32(n int) []float32 {
	values := make([]float32, n)
	for i := range values {
		values[i] = float32((i*104729)%10000) / 10
	}
	if n > 10 {
		values[3] = float32(math.NaN())
		values[9] = float32(math.Inf(-1))
	}
	return values
}

// goldenWeights32 mimics ML weight tensors (the float32 use case the
// paper calls out): full-precision fractions in [-1, 1], served by the
// front-bit RD scheme.
func goldenWeights32(n int) []float32 {
	values := make([]float32, n)
	s := uint64(0xD1B54A32D192ED03)
	for i := range values {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		values[i] = float32(int32(s))/float32(math.MaxInt32) - 0
	}
	return values
}

// TestGoldenFormat pins the on-disk stream format: the serial encoder
// must reproduce each checked-in fixture byte-for-byte, and the decoder
// must read each fixture back bit-exactly. Any format change shows up
// as a diff here and forces a deliberate fixture update (go test
// -run Golden -update-golden) — i.e. a conscious format break.
func TestGoldenFormat(t *testing.T) {
	cases := []struct {
		name   string
		values []float64
	}{
		{"decimals64.alp", goldenDecimals(2560)},
		{"realdoubles64.alp", goldenRealDoubles(1500)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", tc.name)
			got := Encode(tc.values)
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("encoder output differs from golden fixture %s (%d vs %d bytes): the stream format changed",
					tc.name, len(got), len(want))
			}
			if par := EncodeParallel(tc.values, 4); !bytes.Equal(par, want) {
				t.Fatalf("parallel encoder output differs from golden fixture %s", tc.name)
			}
			decoded, err := Decode(want)
			if err != nil {
				t.Fatal(err)
			}
			if !bitsEqual(decoded, tc.values) {
				t.Fatalf("decoded fixture %s is not bit-exact", tc.name)
			}
		})
	}

	// Scan wire format: the selection-aware stream over the same
	// decimal and real-double fixtures, at a dense and a sparse band,
	// so an accidental change to the frame layout, the CRC, or the
	// encoding policy fails loudly.
	scanCases := []struct {
		name   string
		values []float64
		lo, hi float64
	}{
		{"scan_decimals_dense.alps", goldenDecimals(2560), math.Inf(-1), math.Inf(1)},
		{"scan_decimals_sparse.alps", goldenDecimals(2560), 0, 20},
		{"scan_realdoubles_dense.alps", goldenRealDoubles(1500), math.Inf(-1), math.Inf(1)},
		// About a tenth of each ALP_rd vector: raw frames, whose rows
		// the server compacts out of the decoded vector.
		{"scan_realdoubles_sparse.alps", goldenRealDoubles(1500), 0, 5e-309},
	}
	for _, tc := range scanCases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", tc.name)
			col := Compress(tc.values)
			got, rows := col.BuildScanStream(tc.lo, tc.hi)
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("scan stream differs from golden fixture %s (%d vs %d bytes): the wire format changed",
					tc.name, len(got), len(want))
			}
			decoded, err := DecodeScanStream(want)
			if err != nil {
				t.Fatalf("decoding fixture %s: %v", tc.name, err)
			}
			if len(decoded) != rows {
				t.Fatalf("fixture %s decodes to %d rows, builder reported %d", tc.name, len(decoded), rows)
			}
			j := 0
			for _, v := range tc.values {
				if v >= tc.lo && v <= tc.hi {
					if math.Float64bits(decoded[j]) != math.Float64bits(v) {
						t.Fatalf("fixture %s row %d is not bit-exact", tc.name, j)
					}
					j++
				}
			}
			if j != len(decoded) {
				t.Fatalf("fixture %s has %d rows, oracle selects %d", tc.name, len(decoded), j)
			}
		})
	}

	cases32 := []struct {
		name   string
		values []float32
	}{
		{"decimals32.alp", goldenDecimals32(1300)},
		{"weights32.alp", goldenWeights32(2048)},
	}
	for _, tc := range cases32 {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", tc.name)
			got := Encode32(tc.values)
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("encoder output differs from golden fixture %s (%d vs %d bytes): the stream format changed",
					tc.name, len(got), len(want))
			}
			decoded, err := Decode32(want)
			if err != nil {
				t.Fatal(err)
			}
			if len(decoded) != len(tc.values) {
				t.Fatalf("decoded fixture %s: %d values, want %d", tc.name, len(decoded), len(tc.values))
			}
			for i := range decoded {
				if math.Float32bits(decoded[i]) != math.Float32bits(tc.values[i]) {
					t.Fatalf("decoded fixture %s: value %d not bit-exact", tc.name, i)
				}
			}
		})
	}
}
