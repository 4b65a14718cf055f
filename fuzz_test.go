package alp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"

	"github.com/goalp/alp/internal/engine"
	"github.com/goalp/alp/internal/format"
)

// fuzzFloats64 reinterprets raw bytes as little-endian float64 values
// (trailing remainder bytes are dropped), letting the fuzzer mutate
// every bit of every value — NaN payloads, infinities, signed zeros,
// subnormals — not just "nice" numbers.
func fuzzFloats64(raw []byte) []float64 {
	values := make([]float64, len(raw)/8)
	for i := range values {
		values[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return values
}

func fuzzFloats32(raw []byte) []float32 {
	values := make([]float32, len(raw)/4)
	for i := range values {
		values[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return values
}

// le64 appends the values' bit patterns, the seed-corpus encoding of a
// float64 column.
func le64(values ...float64) []byte {
	var out []byte
	for _, v := range values {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// FuzzEncodeDecodeRoundTrip asserts the codec's lossless contract on
// arbitrary bit patterns: every input must round-trip bit-exactly
// through the serial encoder, the parallel encoder, and the streaming
// Writer — and all three must produce identical bytes. The same raw
// input is also exercised through the float32 path.
func FuzzEncodeDecodeRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(le64(1.25, -1.25, 0, 100.01, 99999.99))                              // sweet-spot decimals
	f.Add(le64(math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)))   // specials
	f.Add(le64(math.Float64frombits(0x7FF8DEADBEEF0001)))                      // NaN payload
	f.Add(le64(5e-324, math.SmallestNonzeroFloat64, 2.2250738585072009e-308))  // subnormals
	f.Add(le64(math.MaxFloat64, -math.MaxFloat64, 1e308, math.Pi, math.Sqrt2)) // extremes + real doubles
	f.Add(bytes.Repeat(le64(42.42), 1200))                                     // spans a vector boundary
	f.Fuzz(func(t *testing.T, raw []byte) {
		values := fuzzFloats64(raw)

		serial := EncodeParallel(values, 1)
		parallel := EncodeParallel(values, 3)
		if !bytes.Equal(serial, parallel) {
			t.Fatalf("parallel encode differs from serial for %d values", len(values))
		}
		w := NewWriterParallel(WriterOptions{Workers: 2})
		w.Write(values)
		if streamed := w.Close(); !bytes.Equal(streamed, serial) {
			t.Fatalf("streamed encode differs from one-shot for %d values", len(values))
		}

		for _, workers := range []int{1, 3} {
			got, err := DecodeParallel(serial, workers)
			if err != nil {
				t.Fatalf("decode(workers=%d): %v", workers, err)
			}
			if len(got) != len(values) {
				t.Fatalf("decode(workers=%d): %d values, want %d", workers, len(got), len(values))
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(values[i]) {
					t.Fatalf("value %d: got %016x, want %016x (workers=%d)",
						i, math.Float64bits(got[i]), math.Float64bits(values[i]), workers)
				}
			}
		}

		values32 := fuzzFloats32(raw)
		serial32 := Encode32Parallel(values32, 1)
		if parallel32 := Encode32Parallel(values32, 3); !bytes.Equal(serial32, parallel32) {
			t.Fatalf("parallel encode32 differs from serial for %d values", len(values32))
		}
		got32, err := Decode32(serial32)
		if err != nil {
			t.Fatalf("decode32: %v", err)
		}
		if len(got32) != len(values32) {
			t.Fatalf("decode32: %d values, want %d", len(got32), len(values32))
		}
		for i := range got32 {
			if math.Float32bits(got32[i]) != math.Float32bits(values32[i]) {
				t.Fatalf("value32 %d: got %08x, want %08x",
					i, math.Float32bits(got32[i]), math.Float32bits(values32[i]))
			}
		}
	})
}

// FuzzPushdownAgainstNaive differentially fuzzes the encoded-domain
// predicate pushdown: the first 16 bytes pick a range predicate (two
// little-endian float64 bounds, swapped into order when comparable),
// the rest become the column. The pushdown scan and the forced
// decode-then-filter scan at 1, 2, 4 and 8 threads, the view over a
// shared compressed column, the merged per-row-group partials and the
// public column path must agree bit-for-bit on Sum/Count/Min/Max with
// a plain-slice fold in the fold order for every input — including NaN
// or infinite bounds and columns full of exceptions.
func FuzzPushdownAgainstNaive(f *testing.F) {
	f.Add(le64(0, 100, 1.25, 50.5, 99.99, -3.25, 100.01))          // band over decimals
	f.Add(le64(math.NaN(), 1, 0.5, 2.5))                           // NaN bound matches nothing
	f.Add(le64(0, 0, 0, math.Copysign(0, -1), 1e-300))             // signed zeros on a point band
	f.Add(le64(math.Inf(-1), math.Inf(1), math.NaN(), math.Pi, 1)) // unbounded over specials
	f.Add(le64(1e300, 1e308, 1e307, 2.5, math.MaxFloat64))         // bounds beyond encodable range
	twoGroups := []float64{10, 900}
	for i := 0; i < RowGroupSize+1500; i++ {
		twoGroups = append(twoGroups, float64(i*7919%100003)/100)
	}
	f.Add(le64(twoGroups...)) // two row-groups: the partials merge
	// A band over real doubles that sample to ALP_rd: FilterCount
	// reaches the float-domain compare through FilterVector.
	f.Add(le64(append([]float64{0, 5e-309}, goldenRealDoubles(1500)...)...))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 16 {
			return
		}
		lo := math.Float64frombits(binary.LittleEndian.Uint64(raw))
		hi := math.Float64frombits(binary.LittleEndian.Uint64(raw[8:]))
		if lo > hi {
			lo, hi = hi, lo
		}
		values := fuzzFloats64(raw[16:])
		p := engine.Between(lo, hi)

		// Plain-slice oracle in the fold order: one fold per row-group
		// in index order, merged in row-group order.
		want := engine.Agg{Min: math.Inf(1), Max: math.Inf(-1)}
		for start := 0; start < len(values); start += RowGroupSize {
			a := engine.Agg{Min: math.Inf(1), Max: math.Inf(-1)}
			for _, v := range values[start:min(start+RowGroupSize, len(values))] {
				if p.Match(v) {
					a.Sum += v
					a.Count++
					if v < a.Min {
						a.Min = v
					}
					if v > a.Max {
						a.Max = v
					}
				}
			}
			want.Sum += a.Sum
			want.Count += a.Count
			if a.Min < want.Min {
				want.Min = a.Min
			}
			if a.Max > want.Max {
				want.Max = a.Max
			}
		}

		check := func(name string, got engine.Agg) {
			t.Helper()
			if math.Float64bits(got.Sum) != math.Float64bits(want.Sum) || got.Count != want.Count ||
				math.Float64bits(got.Min) != math.Float64bits(want.Min) ||
				math.Float64bits(got.Max) != math.Float64bits(want.Max) {
				t.Fatalf("%s([%v,%v]) over %d values = %+v, want %+v", name, lo, hi, len(values), got, want)
			}
		}
		r := engine.BuildALP(values)
		view := engine.BuildALPFromColumn("fuzz", format.EncodeColumn(values))
		for _, threads := range []int{1, 2, 4, 8} {
			push, _ := r.FilterAgg(threads, p)
			check(fmt.Sprintf("FilterAgg(%d)", threads), push)
			naive, _ := r.FilterAggNaive(threads, p)
			check(fmt.Sprintf("FilterAggNaive(%d)", threads), naive)
			viewAgg, _ := view.FilterAgg(threads, p)
			check(fmt.Sprintf("view FilterAgg(%d)", threads), viewAgg)
		}
		for _, rel := range []*engine.Relation{r, view} {
			parts, _ := rel.FilterAggPartials(1, p, nil)
			check(rel.Name+" MergeAggs(FilterAggPartials)", engine.MergeAggs(parts))
		}
		if c := r.FilterCount(1, p); c != want.Count {
			t.Fatalf("FilterCount([%v,%v]) = %d, want %d", lo, hi, c, want.Count)
		}

		// Public column path (exercises the format layer's scheme switch).
		res := Compress(values).AggRange(lo, hi)
		check("Column.AggRange", engine.Agg{Sum: res.Sum, Count: int64(res.Count), Min: res.Min, Max: res.Max})
	})
}

// scanFuzzStream builds a deterministic valid scan stream exercising
// all three frame kinds: a dense full-vector frame, a repacked sparse
// frame and raw fallback frames, over a column with specials.
func scanFuzzStream(lo, hi float64) []byte {
	values := make([]float64, 2*VectorSize+37)
	for i := range values {
		values[i] = float64((i*7919)%100000) / 100
	}
	values[3] = math.NaN()
	values[5] = math.Inf(1)
	values[7] = math.Copysign(0, -1)
	stream, _ := Compress(values).BuildScanStream(lo, hi)
	return stream
}

// scanFramesOneByOne is the frame-by-frame reference for
// DecodeScanStream: a fresh decoder's Next, appended onto a nil slice,
// so no frame is ever decoded in place.
func scanFramesOneByOne(data []byte) ([]float64, error) {
	d, err := format.NewScanDecoder(data)
	if err != nil {
		return nil, err
	}
	var out []float64
	for {
		rows, err := d.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rows...)
	}
}

// FuzzScanFrameDecode feeds arbitrary (including mutated-valid) bytes
// to the selection-aware scan stream decoder: it must never panic, it
// must reject every structural defect — bad magic, truncated frames,
// CRC mismatches, bitmap-cardinality lies — with an error wrapping
// ErrCorrupt, and it must agree with the frame-by-frame reference: both
// accept or both reject, and both return the same rows, bit for bit.
func FuzzScanFrameDecode(f *testing.F) {
	full := scanFuzzStream(math.Inf(-1), math.Inf(1)) // dense frames
	sparse := scanFuzzStream(0, 20)                   // repacked + raw frames
	f.Add(full)
	f.Add(sparse)
	rd := Compress(goldenRealDoubles(1500))
	rdDense, _ := rd.BuildScanStream(math.Inf(-1), math.Inf(1)) // dense ALP_rd frames
	rdRaw, _ := rd.BuildScanStream(0, 5e-309)                   // raw frames compacted from ALP_rd vectors
	f.Add(rdDense)
	f.Add(rdRaw)
	f.Add(full[:len(full)/2]) // mid-frame cut
	f.Add(full[:5])           // header only
	f.Add([]byte{})
	f.Add([]byte("ALPSgarbage"))
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/3] ^= 0x20
	f.Add(flipped) // CRC-detected corruption
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := DecodeScanStream(data)
		ref, refErr := scanFramesOneByOne(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("DecodeScanStream error %v, frame-by-frame reference error %v", err, refErr)
		}
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("DecodeScanStream error does not wrap ErrCorrupt: %v", err)
		}
		// On a rejected stream both return the rows before the defect.
		if !bitsEqual(rows, ref) {
			t.Fatalf("in-place decode of %d rows differs from the frame-by-frame reference of %d", len(rows), len(ref))
		}
	})
}

// FuzzOpen feeds arbitrary (including mutated-valid) byte streams to
// the stream readers: they must never panic, and must either decode
// cleanly or fail with an error wrapping ErrCorrupt — the validation
// contract scan engines rely on when reading untrusted files.
func FuzzOpen(f *testing.F) {
	valid := Encode([]float64{1.5, 2.25, 100.75, math.NaN(), math.Inf(1)})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])  // truncated
	f.Add(valid[:12])            // header only
	f.Add([]byte{})              // empty
	f.Add([]byte("ALP1garbage")) // magic then junk
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)                        // bit-flipped payload
	f.Add(Encode32([]float32{1.5, -0.5})) // 32-bit stream into both readers
	f.Add(Encode32(goldenWeights32(256))) // ALP_rd-32 stream
	f.Fuzz(func(t *testing.T, data []byte) {
		col, err := Open(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open error does not wrap ErrCorrupt: %v", err)
			}
		} else {
			// A structurally valid stream must decode without panicking,
			// serially and in parallel, and agree with itself.
			vals := col.ValuesParallel(1)
			par := col.ValuesParallel(3)
			if !bitsEqual(vals, par) {
				t.Fatal("serial and parallel decode disagree on accepted stream")
			}
			col.Sum()
			col.SumRange(0, 1)
		}

		got, err := Decode32(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode32 error does not wrap ErrCorrupt: %v", err)
			}
		} else {
			_ = got
		}
	})
}

// encodedVectorSeeds are the envelopes a thin client reads from
// /vectors/{i}: every vector of a small decimal column with a NaN, one
// ALP_rd vector of real doubles, and an empty input.
func encodedVectorSeeds(tb testing.TB) [][]byte {
	decimals := make([]float64, 2*VectorSize+37)
	for i := range decimals {
		decimals[i] = float64((i*7919)%100000) / 100
	}
	decimals[3] = math.NaN()
	rd := make([]float64, VectorSize)
	s := uint64(0x9E3779B97F4A7C15)
	for i := range rd {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		rd[i] = math.Float64frombits(s &^ (0x7FF << 52))
	}
	rdCol := Compress(rd)
	if !rdCol.UsedRD() {
		tb.Fatal("real-double seed column did not choose ALP_rd")
	}
	var seeds [][]byte
	for _, col := range []*Column{Compress(decimals), rdCol} {
		for i := 0; i < col.NumVectors(); i++ {
			env, err := col.EncodedVector(i)
			if err != nil {
				tb.Fatal(err)
			}
			seeds = append(seeds, env)
		}
	}
	return append(seeds, []byte{})
}

// FuzzDecodeEncodedVector feeds arbitrary (including mutated-valid)
// bytes to the single-vector envelope decoder: it must never panic, it
// must reject every defect with an error wrapping ErrCorrupt, and an
// accepted envelope must decode the same way twice.
func FuzzDecodeEncodedVector(f *testing.F) {
	for _, seed := range encodedVectorSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dst := make([]float64, VectorSize)
		n, err := DecodeEncodedVector(data, dst)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("DecodeEncodedVector error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		again := make([]float64, VectorSize)
		m, err := DecodeEncodedVector(data, again)
		if err != nil || m != n || !bitsEqual(dst[:n], again[:m]) {
			t.Fatalf("accepted envelope decoded differently twice (%d then %d values, %v)", n, m, err)
		}
	})
}
