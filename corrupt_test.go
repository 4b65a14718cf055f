package alp

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"github.com/goalp/alp/internal/format"
)

// TestCorruptStreams feeds deliberately damaged streams to the public
// entry points and asserts they fail with ErrCorrupt (possibly
// wrapped) — never a panic, never silent acceptance of a structurally
// invalid stream.
func TestCorruptStreams(t *testing.T) {
	values := decimalColumn(3)
	values[5] = 1e300 // guarantee at least one exception segment
	base := Encode(values)

	cases := []struct {
		name    string
		corrupt func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"magic flipped", func(b []byte) []byte { b[0] ^= 0xFF; return b }},
		{"truncated header", func(b []byte) []byte { return b[:10] }},
		{"truncated mid-payload", func(b []byte) []byte { return b[:len(b)/2] }},
		{"truncated by one byte", func(b []byte) []byte { return b[:len(b)-1] }},
		{"value count inflated", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[4:], 1<<40)
			return b
		}},
		{"row-group count zeroed", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:], 0)
			return b
		}},
		{"scheme byte invalid", func(b []byte) []byte {
			b[16] = 0x7F // first row-group's scheme
			return b
		}},
		{"row-group extent shifted", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[17:], 999) // rg.Start
			return b
		}},
		{"combo out of range", func(b []byte) []byte {
			// combo list starts right after scheme(1)+start(4)+n(4)+count(1)
			b[26] = 200 // exponent 200 > MaxExponent
			return b
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mut := tc.corrupt(append([]byte(nil), base...))
			assertCorrupt := func(what string, err error) {
				t.Helper()
				if err == nil {
					t.Fatalf("%s accepted the corrupted stream", what)
				}
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s error %v does not wrap ErrCorrupt", what, err)
				}
			}
			_, err := Decode(mut)
			assertCorrupt("Decode", err)
			_, err = Open(mut)
			assertCorrupt("Open", err)
			_, err = ColumnStats(mut)
			assertCorrupt("ColumnStats", err)
			_, err = NewReader(mut)
			assertCorrupt("NewReader", err)
		})
	}

	// Encode always appends a zone map, so its streams never end with
	// the trailer flag; build a zone-map-less stream to corrupt the
	// flag itself, and separately truncate into the zone-map floats.
	t.Run("trailer flag unknown", func(t *testing.T) {
		col, err := format.Unmarshal(base)
		if err != nil {
			t.Fatal(err)
		}
		col.Zones = nil
		mut := col.Marshal()
		mut[len(mut)-1] = 9
		if _, err := Open(mut); err == nil || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("unknown trailer flag: err = %v", err)
		}
	})
	t.Run("zone map truncated", func(t *testing.T) {
		mut := append([]byte(nil), base...)
		mut = mut[:len(mut)-7] // cut into the zone-map floats
		if _, err := Open(mut); err == nil || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated zone map: err = %v", err)
		}
	})

	// Exception positions must strictly increase: the pushdown kernels
	// walk them in order, so a swapped or repeated position would make
	// a filtered aggregate disagree with Decode.
	rng := rand.New(rand.NewSource(7))
	reals := make([]float64, VectorSize)
	for i := range reals {
		reals[i] = rng.NormFloat64()
	}
	for _, order := range []struct {
		name string
		pos  []uint16
	}{{"swapped", []uint16{9, 4}}, {"duplicated", []uint16{4, 4}}} {
		for _, src := range []struct {
			name   string
			values []float64
		}{{"ALP", values}, {"ALP_rd", reals}} {
			t.Run("exception positions "+order.name+" "+src.name, func(t *testing.T) {
				col, err := format.Unmarshal(Encode(src.values))
				if err != nil {
					t.Fatal(err)
				}
				rg := &col.RowGroups[0]
				if rg.Scheme == format.SchemeRD {
					v := &rg.RDVectors[0]
					v.ExcPos, v.ExcLeft = order.pos, []uint16{1, 2}
				} else {
					v := &rg.Vectors[0]
					v.ExcPos, v.ExcVals = order.pos, []float64{1e300, 2e300}
				}
				if got := rg.Scheme == format.SchemeRD; got != (src.name == "ALP_rd") {
					t.Fatalf("%s data encoded with scheme %d", src.name, rg.Scheme)
				}
				mut := col.Marshal()
				if _, err := Decode(mut); err == nil || !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Decode: err = %v", err)
				}
				if _, err := Open(mut); err == nil || !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Open: err = %v", err)
				}
			})
		}
	}
}

// TestCorruptStreamsFuzz flips random bytes and asserts the public API
// either rejects the stream with a wrapped ErrCorrupt or decodes it
// without panicking (undetectable payload bit flips may legally change
// values).
func TestCorruptStreamsFuzz(t *testing.T) {
	base := Encode(decimalColumn(2))
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		mut := append([]byte(nil), base...)
		for f := 0; f < 1+r.Intn(3); f++ {
			mut[r.Intn(len(mut))] ^= byte(1 + r.Intn(255))
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("trial %d: panic %v", trial, p)
				}
			}()
			got, err := Decode(mut)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("trial %d: error %v does not wrap ErrCorrupt", trial, err)
				}
				return
			}
			_ = got
		}()
	}

	// Truncations at every length must be rejected (a valid stream has
	// no proper prefix that is also valid) — and must never panic.
	for cut := 0; cut < len(base); cut++ {
		if _, err := Decode(base[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: error %v does not wrap ErrCorrupt", cut, err)
		}
	}
}
