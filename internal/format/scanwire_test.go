package format

import (
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"testing"

	"github.com/goalp/alp/internal/vector"
)

// scanOracle filters the raw values the simple way: decode semantics
// are v in [lo, hi], NaN never matches, order preserved.
func scanOracle(values []float64, lo, hi float64) []float64 {
	var out []float64
	for _, v := range values {
		if v >= lo && v <= hi {
			out = append(out, v)
		}
	}
	return out
}

func decodeStream(t *testing.T, stream []byte) []float64 {
	t.Helper()
	d, err := NewScanDecoder(stream)
	if err != nil {
		t.Fatalf("NewScanDecoder: %v", err)
	}
	hint := d.SizeHint()
	var out []float64
	for {
		rows, err := d.Next()
		if err == io.EOF {
			if hint != len(out) {
				t.Fatalf("SizeHint = %d for a valid stream of %d rows", hint, len(out))
			}
			return out
		}
		if err != nil {
			t.Fatalf("Next after %d rows: %v", len(out), err)
		}
		out = append(out, rows...)
	}
}

func bits64Equal(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("row %d: got %016x (%v), want %016x (%v)",
				i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// scanDecimals is a deterministic decimal-heavy column in [0, 1000)
// whose uniform spread makes selectivity directly tunable via the
// predicate band.
func scanDecimals(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64((i*7919)%100000) / 100
	}
	return out
}

// scanSpecials mixes decimals with every bit-exactness hazard: NaN
// payloads, both infinities, -0, subnormals, and one whole vector of
// random bit patterns (all exceptions under the decimal scheme).
func scanSpecials(n int) []float64 {
	out := scanDecimals(n)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i += 97 {
		switch (i / 97) % 5 {
		case 0:
			out[i] = math.Float64frombits(0x7FF8DEADBEEF0001) // NaN payload
		case 1:
			out[i] = math.Inf(1)
		case 2:
			out[i] = math.Inf(-1)
		case 3:
			out[i] = math.Copysign(0, -1)
		case 4:
			out[i] = 5e-324
		}
	}
	if n >= 3*vector.Size {
		// One all-exception vector inside the decimal row-group.
		for i := vector.Size; i < 2*vector.Size; i++ {
			out[i] = math.Float64frombits(rng.Uint64())
		}
	}
	return out
}

// scanRealDoubles forces the RD scheme (dense/raw wire encodings only).
func scanRealDoubles(n int) []float64 {
	out := make([]float64, n)
	s := uint64(0x9E3779B97F4A7C15)
	for i := range out {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		out[i] = math.Float64frombits(s &^ (0x7FF << 52))
	}
	return out
}

// TestScanStreamRoundTrip sweeps selectivity and dataset shape: the
// decoded stream must equal the float-domain oracle bit-for-bit at
// every point, whatever mix of dense/repacked/raw frames the policy
// picked.
func TestScanStreamRoundTrip(t *testing.T) {
	datasets := []struct {
		name   string
		values []float64
	}{
		{"decimals", scanDecimals(5*vector.Size + 321)},
		{"specials", scanSpecials(4*vector.Size + 77)},
		{"realdoubles", scanRealDoubles(3*vector.Size + 11)},
		{"tiny", scanDecimals(9)},
	}
	// Bands over the uniform [0, 1000) spread: ~0.1%, 1%, 10%, 50%,
	// 99%, 100% selectivity, plus an empty result.
	bands := []struct {
		name   string
		lo, hi float64
	}{
		{"sel_0.1%", 0, 0.99},
		{"sel_1%", 0, 9.99},
		{"sel_10%", 0, 99.99},
		{"sel_50%", 0, 499.99},
		{"sel_99%", 0, 989.99},
		{"sel_100%", math.Inf(-1), math.Inf(1)},
		{"empty", 2000, 3000},
	}
	for _, ds := range datasets {
		col := EncodeColumn(ds.values)
		for _, b := range bands {
			t.Run(ds.name+"/"+b.name, func(t *testing.T) {
				stream, rows := BuildScanStream(col, b.lo, b.hi)
				want := scanOracle(ds.values, b.lo, b.hi)
				if rows != len(want) {
					t.Fatalf("BuildScanStream reported %d rows, oracle has %d", rows, len(want))
				}
				got := decodeStream(t, stream)
				bits64Equal(t, got, want)
			})
		}
	}
}

// TestScanFramePolicy pins the cost-based encoding choice: a full
// selection ships the stored envelope (dense), a very sparse one
// re-packs, and a couple of rows fall back to raw floats.
func TestScanFramePolicy(t *testing.T) {
	values := scanDecimals(2 * vector.Size)
	col := EncodeColumn(values)
	w := NewScanWriter(col)

	frame, n, kind, _ := w.Frame(0, math.Inf(-1), math.Inf(1))
	if frame == nil || n != vector.Size || kind != ScanFrameDense {
		t.Fatalf("full selection: kind %v, %d rows", kind, n)
	}

	// ~64 rows of vector 0 (values are (i*7919 mod 100000)/100, so a
	// narrow band selects a thin slice).
	_, n, kind, _ = w.Frame(0, 0, 30)
	if n == 0 || n >= vector.Size/4 || kind != ScanFrameRepacked {
		t.Fatalf("sparse selection: kind %v, %d rows", kind, n)
	}

	// A near-point band: a handful of rows, cheaper raw.
	_, n, kind, _ = w.Frame(0, 0, 0.5)
	if n == 0 || kind != ScanFrameRaw {
		t.Fatalf("tiny selection: kind %v, %d rows", kind, n)
	}

	frame, n, kind, _ = w.Frame(0, 5000, 6000)
	if frame != nil || n != 0 {
		t.Fatalf("empty selection: frame %v, %d rows, kind %v", frame, n, kind)
	}
}

// TestScanStreamSmaller asserts the point of the format: on a dense
// selection the stream must be well under 8 bytes/row.
func TestScanStreamSmaller(t *testing.T) {
	values := scanDecimals(10 * vector.Size)
	col := EncodeColumn(values)
	stream, rows := BuildScanStream(col, math.Inf(-1), math.Inf(1))
	if rows != len(values) {
		t.Fatalf("rows = %d, want %d", rows, len(values))
	}
	if len(stream)*2 >= rows*8 {
		t.Fatalf("full-selection stream is %d bytes for %d rows (%.1f B/row); want < 4 B/row",
			len(stream), rows, float64(len(stream))/float64(rows))
	}
}

// TestScanStreamTruncation cuts the stream at every byte offset: each
// prefix must either fail to decode or decode to a strict prefix of
// the rows (a cut exactly on a frame boundary — which the trailer
// row-count check catches one layer up). Silent equality with the full
// result is the one outcome that must never happen.
func TestScanStreamTruncation(t *testing.T) {
	values := scanSpecials(3*vector.Size + 100)
	col := EncodeColumn(values)
	stream, rows := BuildScanStream(col, 0, 600)
	if rows == 0 {
		t.Fatal("predicate selected nothing; test needs frames")
	}
	for cut := 0; cut < len(stream); cut++ {
		d, err := NewScanDecoder(stream[:cut])
		if err != nil {
			continue // header cut: rejected outright
		}
		got := 0
		for {
			vals, err := d.Next()
			if err == io.EOF {
				// Clean EOF on a prefix: only legal on a frame boundary,
				// and then with strictly fewer rows than the full stream.
				if got >= rows {
					t.Fatalf("cut at %d/%d decoded all %d rows cleanly", cut, len(stream), rows)
				}
				break
			}
			if err != nil {
				break // truncation surfaced as an error: correct
			}
			got += len(vals)
		}
	}
}

// TestScanStreamCorruption flips one bit in every byte of the stream
// (header, frame headers, bitmaps, payloads, CRCs): no mutation may
// decode cleanly to the original rows while claiming success, and none
// may panic. The CRC covers the kind byte and payload, the header
// covers itself, so every flip must surface as an error or a
// CRC-detected reject.
func TestScanStreamCorruption(t *testing.T) {
	values := scanDecimals(2*vector.Size + 10)
	col := EncodeColumn(values)
	stream, _ := BuildScanStream(col, 0, 700)
	mut := make([]byte, len(stream))
	for i := 0; i < len(stream); i++ {
		copy(mut, stream)
		mut[i] ^= 0x10
		d, err := NewScanDecoder(mut)
		if err != nil {
			continue
		}
		for {
			_, err := d.Next()
			if err == io.EOF {
				t.Fatalf("bit flip at byte %d decoded cleanly", i)
			}
			if err != nil {
				break
			}
		}
	}
}

// TestScanDecoderBitmapCardinality rejects a dense frame whose bitmap
// popcount disagrees with its count header, even with a valid CRC —
// the fuzz target's core invariant, pinned deterministically here.
func TestScanDecoderBitmapCardinality(t *testing.T) {
	values := scanDecimals(vector.Size)
	col := EncodeColumn(values)
	stream, _ := BuildScanStream(col, math.Inf(-1), math.Inf(1))

	// Frame starts after the stream header: kind, len, payload
	// (count u16 | total u16 | bitmap | envelope), crc.
	p := ScanStreamHeaderSize
	if ScanFrameKind(stream[p]) != ScanFrameDense {
		t.Fatalf("expected a dense frame, got kind %d", stream[p])
	}
	plen := int(binary.LittleEndian.Uint32(stream[p+1:]))
	payloadOff := p + 5
	// Drop one row from the count header and re-seal the CRC: the
	// bitmap still has vector.Size bits set.
	binary.LittleEndian.PutUint16(stream[payloadOff:], uint16(vector.Size-1))
	crc := frameCRC(ScanFrameDense, stream[payloadOff:payloadOff+plen])
	binary.LittleEndian.PutUint32(stream[payloadOff+plen:], crc)

	d, err := NewScanDecoder(stream)
	if err != nil {
		t.Fatalf("NewScanDecoder: %v", err)
	}
	if _, err := d.Next(); err == nil {
		t.Fatal("bitmap-cardinality mismatch decoded without error")
	}
}
