package format

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/goalp/alp/internal/vector"
)

// wireDatasets covers both schemes: decimals pick ALP, random mantissa
// bits force ALP_rd.
func wireDatasets() map[string][]float64 {
	rng := rand.New(rand.NewSource(42))
	decimals := make([]float64, vector.Size*3+100) // ragged tail vector
	for i := range decimals {
		decimals[i] = math.Round(rng.Float64()*10000) / 100
	}
	decimals[7] = math.NaN()
	decimals[8] = math.Inf(-1)
	decimals[9] = math.Copysign(0, -1)
	reals := make([]float64, vector.Size*2)
	for i := range reals {
		reals[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
	}
	return map[string][]float64{"decimals": decimals, "reals": reals}
}

func TestVectorEnvelopeRoundTrip(t *testing.T) {
	for name, values := range wireDatasets() {
		t.Run(name, func(t *testing.T) {
			col := EncodeColumn(values)
			dst := make([]float64, vector.Size)
			scratch := make([]int64, vector.Size)
			for i := 0; i < col.NumVectors(); i++ {
				env, err := col.MarshalVector(i)
				if err != nil {
					t.Fatalf("MarshalVector(%d): %v", i, err)
				}
				n, err := UnmarshalVector(env, dst, scratch)
				if err != nil {
					t.Fatalf("UnmarshalVector(%d): %v", i, err)
				}
				lo, hi := vector.Bounds(i, col.N)
				if n != hi-lo {
					t.Fatalf("vector %d decoded %d values, want %d", i, n, hi-lo)
				}
				for j := 0; j < n; j++ {
					if math.Float64bits(dst[j]) != math.Float64bits(values[lo+j]) {
						t.Fatalf("vector %d value %d = %v, want %v", i, j, dst[j], values[lo+j])
					}
				}
			}
		})
	}
}

// TestUnmarshalVectorRDAllocations decodes one ALP_rd envelope: the
// only allocations left are the parsed payload words and dictionary,
// not an encode index or per-row decode arrays.
func TestUnmarshalVectorRDAllocations(t *testing.T) {
	col := EncodeColumn(wireDatasets()["reals"])
	if !col.UsedRD() {
		t.Fatal("real doubles did not sample to ALP_rd")
	}
	env, err := col.MarshalVector(0)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, vector.Size)
	scratch := make([]int64, vector.Size)
	const calls = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < calls; k++ {
		if _, err := UnmarshalVector(env, dst, scratch); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall >= 16<<10 {
		t.Fatalf("UnmarshalVector of a %d-byte ALP_rd envelope allocates %d bytes", len(env), perCall)
	}
}

func TestVectorEnvelopeNilScratch(t *testing.T) {
	values := wireDatasets()["decimals"]
	col := EncodeColumn(values)
	env, err := col.MarshalVector(0)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, vector.Size)
	if _, err := UnmarshalVector(env, dst, nil); err != nil {
		t.Fatalf("nil scratch: %v", err)
	}
}

func TestVectorEnvelopeErrors(t *testing.T) {
	values := wireDatasets()["decimals"]
	col := EncodeColumn(values)
	if _, err := col.MarshalVector(-1); err == nil {
		t.Error("MarshalVector(-1) did not error")
	}
	if _, err := col.MarshalVector(col.NumVectors()); err == nil {
		t.Error("MarshalVector(out of range) did not error")
	}
	env, err := col.MarshalVector(0)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, vector.Size)

	// Truncations at every prefix length must error, never panic.
	for cut := 0; cut < len(env); cut++ {
		if _, err := UnmarshalVector(env[:cut], dst, nil); err == nil {
			t.Fatalf("truncation at %d bytes accepted", cut)
		}
	}
	// Trailing garbage is rejected.
	if _, err := UnmarshalVector(append(append([]byte(nil), env...), 0xFF), dst, nil); err == nil {
		t.Error("trailing byte accepted")
	}
	// Bad magic.
	bad := append([]byte(nil), env...)
	bad[0] ^= 0xFF
	if _, err := UnmarshalVector(bad, dst, nil); err == nil {
		t.Error("bad magic accepted")
	}
	// Destination too small.
	if _, err := UnmarshalVector(env, make([]float64, 1), nil); err == nil {
		t.Error("short destination accepted")
	}

	// Exception positions that do not strictly increase are rejected
	// in both schemes' envelopes.
	for name, values := range wireDatasets() {
		for _, pos := range [][]uint16{{9, 4}, {4, 4}} {
			col := EncodeColumn(values)
			rg := &col.RowGroups[0]
			if rg.Scheme == SchemeRD {
				v := &rg.RDVectors[0]
				v.ExcPos, v.ExcLeft = pos, []uint16{1, 2}
			} else {
				v := &rg.Vectors[0]
				v.ExcPos, v.ExcVals = pos, []float64{1e300, 2e300}
			}
			env, err := col.MarshalVector(0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := UnmarshalVector(env, dst, nil); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: exception positions %v: err = %v, want ErrCorrupt", name, pos, err)
			}
		}
	}
}
