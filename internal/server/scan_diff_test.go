package server

import (
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"github.com/goalp/alp"
	"github.com/goalp/alp/client"
	"github.com/goalp/alp/internal/engine"
	"github.com/goalp/alp/internal/vector"
)

// sweepDecimals spreads decimal values uniformly over [0, 1000) so a
// predicate band selects a precisely tunable fraction of the rows.
func sweepDecimals(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64((i*7919)%100000) / 100
	}
	return out
}

// sweepSpecials is sweepDecimals with every bit-exactness hazard mixed
// in — NaN payloads, ±Inf, -0, subnormals — plus two whole vectors of
// random bit patterns, which encode as all-exception vectors inside
// the decimal row-group.
func sweepSpecials(n int) []float64 {
	out := sweepDecimals(n)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < n; i += 113 {
		switch (i / 113) % 5 {
		case 0:
			out[i] = math.Float64frombits(0x7FF8DEADBEEF0001)
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
	if n >= 4*vector.Size {
		for i := vector.Size; i < 3*vector.Size; i++ {
			out[i] = math.Float64frombits(rng.Uint64())
		}
	}
	return out
}

// sweepRealDoubles forces the RD scheme for the whole column.
func sweepRealDoubles(n int) []float64 {
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

// TestScanDifferentialBattery is the served-scan bit-identity battery:
// a selectivity sweep (≈0.1%, 1%, 10%, 50%, 99%, 100%, empty) crossed
// with edge datasets (uniform decimals, all-exception vectors +
// NaN/±Inf/-0/subnormals, RD real doubles), each row served under BOTH
// wire encodings — the compressed selection-aware stream (Scan) and
// raw little-endian float64s (ScanRaw) — and compared bit-for-bit
// against the in-process fused unpack+filter+gather oracle
// (engine.Relation.FilterRows over FilterGatherVector).
func TestScanDifferentialBattery(t *testing.T) {
	_, cl := newTestServer(t, Options{})
	ctx := context.Background()

	datasets := []struct {
		name   string
		values []float64
	}{
		{"decimals", sweepDecimals(2*vector.RowGroupSize + 3333)},
		{"specials", sweepSpecials(vector.RowGroupSize + 4*vector.Size + 55)},
		{"realdoubles", sweepRealDoubles(6*vector.Size + 7)},
		{"empty", nil},
	}
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
		if _, err := cl.Ingest(ctx, ds.name, ds.values); err != nil {
			t.Fatalf("ingest %s: %v", ds.name, err)
		}
		rel := engine.BuildALP(ds.values)
		for _, b := range bands {
			t.Run(ds.name+"/"+b.name, func(t *testing.T) {
				want := rel.FilterRows(engine.Between(b.lo, b.hi))
				compressed, err := cl.Scan(ctx, ds.name, client.Between(b.lo, b.hi))
				if err != nil {
					t.Fatalf("compressed scan: %v", err)
				}
				raw, err := cl.ScanRaw(ctx, ds.name, client.Between(b.lo, b.hi))
				if err != nil {
					t.Fatalf("raw scan: %v", err)
				}
				for enc, got := range map[string][]float64{"compressed": compressed, "raw": raw} {
					if len(got) != len(want) {
						t.Fatalf("%s: %d rows, want %d", enc, len(got), len(want))
					}
					for i := range got {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s row %d: got %016x (%v), want %016x (%v)",
								enc, i, math.Float64bits(got[i]), got[i],
								math.Float64bits(want[i]), want[i])
						}
					}
				}
			})
		}
	}
}

// TestScanNegotiation pins the content negotiation itself: an Accept
// carrying application/x-alp-scan gets the framed stream (and the
// server reports compressed frames in /metrics), anything else keeps
// the raw float64 body and Content-Type.
func TestScanNegotiation(t *testing.T) {
	alp.EnableStats()
	defer alp.DisableStats()
	alp.ResetStats()
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	values := sweepDecimals(3 * vector.Size)
	cl := client.New(ts.URL)
	if _, err := cl.Ingest(context.Background(), "neg", values); err != nil {
		t.Fatalf("ingest: %v", err)
	}

	get := func(accept string) (*http.Response, []byte) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/columns/neg/scan", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("scan request: %v", err)
		}
		body := make([]byte, 0, 1<<16)
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			body = append(body, buf[:n]...)
			if err != nil {
				break
			}
		}
		resp.Body.Close()
		return resp, body
	}

	resp, body := get(alp.ScanStreamContentType)
	if ct := resp.Header.Get("Content-Type"); ct != alp.ScanStreamContentType {
		t.Fatalf("negotiated Content-Type = %q, want %q", ct, alp.ScanStreamContentType)
	}
	rows, err := alp.DecodeScanStream(body)
	if err != nil {
		t.Fatalf("DecodeScanStream: %v", err)
	}
	if trailer := resp.Trailer.Get(ScanRowsTrailer); trailer != strconv.Itoa(len(rows)) {
		t.Fatalf("trailer %q, decoded %d rows", trailer, len(rows))
	}
	if len(body) >= 8*len(rows) {
		t.Fatalf("compressed scan body is %d bytes for %d rows — not smaller than raw", len(body), len(rows))
	}

	resp, body = get("") // no negotiation: legacy raw body
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-alp-f64le" {
		t.Fatalf("default Content-Type = %q, want raw", ct)
	}
	if len(body) != 8*len(rows) {
		t.Fatalf("raw body %d bytes, want %d", len(body), 8*len(rows))
	}

	m := alp.ReadStats()
	if m.ScanFramesDense+m.ScanFramesRepacked+m.ScanFramesRaw == 0 {
		t.Fatal("no scan frames counted")
	}
	if m.ScanBytesSaved <= 0 {
		t.Fatalf("scan_bytes_saved = %d, want > 0", m.ScanBytesSaved)
	}
}

// truncatingScanHandler replays a prefix of a valid compressed scan
// stream while still claiming success (200, full-count trailer) — the
// adversarial server a client must not trust.
func truncatingScanHandler(stream []byte, cut, rows int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Trailer", ScanRowsTrailer)
		w.Header().Set("Content-Type", "application/x-alp-scan")
		w.Write(stream[:cut])
		w.Header().Set(ScanRowsTrailer, strconv.Itoa(rows))
	})
}

// TestScanTruncationSurfaces cuts the compressed stream mid-frame and
// mid-bitmap (and on a frame boundary with a lying trailer): the
// client must surface an error every time, never a silent partial
// result.
func TestScanTruncationSurfaces(t *testing.T) {
	values := sweepSpecials(3 * vector.Size)
	col := alp.Compress(values)
	stream, rows := col.BuildScanStream(math.Inf(-1), math.Inf(1))
	if rows != len(values)-countNaNs(values) {
		t.Fatalf("stream has %d rows", rows)
	}

	// Locate the first frame's payload to target the cuts: the dense
	// payload starts with count/total then the bitmap.
	frameStart := 5 // stream header
	payloadLen := int(binary.LittleEndian.Uint32(stream[frameStart+1:]))
	cuts := []struct {
		name string
		cut  int
	}{
		{"mid_header", 3},
		{"mid_frame_header", frameStart + 2},
		{"mid_bitmap", frameStart + 5 + 4 + 9},         // inside the selection bitmap words
		{"mid_payload", frameStart + 5 + payloadLen/2}, // inside the envelope
		{"mid_crc", frameStart + 5 + payloadLen + 2},
		{"frame_boundary", frameStart + 9 + payloadLen},
	}
	for _, c := range cuts {
		t.Run(c.name, func(t *testing.T) {
			if c.cut >= len(stream) {
				t.Fatalf("cut %d beyond stream of %d", c.cut, len(stream))
			}
			ts := httptest.NewServer(truncatingScanHandler(stream, c.cut, rows))
			defer ts.Close()
			cl := client.New(ts.URL, client.WithRetries(0))
			got, err := cl.Scan(context.Background(), "x", client.All())
			if err == nil {
				t.Fatalf("truncated stream (cut %d/%d) returned %d rows without error",
					c.cut, len(stream), len(got))
			}
			if !strings.Contains(err.Error(), "scan") {
				t.Fatalf("unexpected error shape: %v", err)
			}
		})
	}
}

func countNaNs(values []float64) int {
	n := 0
	for _, v := range values {
		if math.IsNaN(v) {
			n++
		}
	}
	return n
}
