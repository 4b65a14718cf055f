package server

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/goalp/alp"
	"github.com/goalp/alp/client"
	"github.com/goalp/alp/internal/engine"
	"github.com/goalp/alp/internal/format"
	"github.com/goalp/alp/internal/vector"
)

// The one-copy battery: a scan's bytes are written once into the
// server's frame buffer, read once into the client's reused body buffer
// and decoded once into the result; an ingest's values go out from
// their own memory.

// allocatedPerCall returns the median of the bytes each of calls calls
// of f allocates, after two warm-up calls. The median, not the mean: a
// collection between two calls can empty a sync.Pool, and the next call
// then allocates what the pool would have lent.
func allocatedPerCall(calls int, f func()) uint64 {
	f()
	f()
	per := make([]uint64, calls)
	var before, after runtime.MemStats
	for i := range per {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		per[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(per)
	return per[calls/2]
}

// scanCallSlack bounds what one client.Scan allocates beyond its 8
// bytes per row, both ends of the wire counted: the server's frame
// writer and 64 KiB write buffer, the client's decoder and the HTTP
// machinery of both.
const scanCallSlack = 256 << 10

// TestClientScanAllocationBudget: once warm, a full-range scan of four
// City-Temp row-groups through an in-process alpserved allocates its
// result and a fixed amount more. The body is read into a reused buffer
// and every frame decodes into the one result, so nothing grows with
// the body or the frame count.
func TestClientScanAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	alp.DisableStats()
	_, cl := newTestServer(t, Options{})
	ctx := context.Background()
	values := ingestWindow(t, "City-Temp", 4*vector.RowGroupSize)
	if _, err := cl.Ingest(ctx, "temp", values); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	per := allocatedPerCall(5, func() {
		rows, err := cl.Scan(ctx, "temp", client.All())
		if err != nil || len(rows) != len(values) {
			t.Fatalf("scan: %d rows, err %v; want %d", len(rows), err, len(values))
		}
	})
	t.Logf("%d bytes allocated per scan of %d rows", per, len(values))
	if budget := 8*uint64(len(values)) + scanCallSlack; per > budget {
		t.Errorf("a scan of %d rows allocates %d bytes, budget %d", len(values), per, budget)
	}
}

// TestClientIngestSendsValuesInPlace: on a little-endian host an ingest
// sends the values from their own memory, so uploading 409,600 values
// to a handler that discards them allocates less than the 8 bytes per
// value a copy of the body would.
func TestClientIngestSendsValuesInPlace(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	if binary.NativeEndian.Uint16([]byte{1, 0}) != 1 {
		t.Skip("a big-endian host copies the body")
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusCreated)
		io.WriteString(w, `{"name":"x"}`)
	}))
	defer ts.Close()
	cl := client.New(ts.URL)
	values := ingestWindow(t, "City-Temp", 4*vector.RowGroupSize)
	per := allocatedPerCall(5, func() {
		if _, err := cl.Ingest(context.Background(), "x", values); err != nil {
			t.Fatalf("ingest: %v", err)
		}
	})
	t.Logf("%d bytes allocated per ingest of %d values", per, len(values))
	if per >= 8*uint64(len(values)) {
		t.Errorf("an ingest of %d values allocates %d bytes, a copy of its body is %d", len(values), per, 8*len(values))
	}
}

// TestIngestBodyNotReadAfterReturn: a server that answers before it
// reads the body leaves net/http writing the request while Ingest
// returns, and the caller may then reuse its values at once. Under
// -race, the writes below race with any read of the values that
// outlives the call.
func TestIngestBodyNotReadAfterReturn(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"refused"}`, http.StatusBadRequest)
	}))
	defer ts.Close()
	cl := client.New(ts.URL, client.WithRetries(0))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			values := make([]float64, 1<<20)
			for i := 0; i < 8; i++ {
				if _, err := cl.Ingest(context.Background(), "x", values); err == nil {
					t.Error("an ingest the server refused returned no error")
					return
				}
				for j := range values {
					values[j] = float64(i)
				}
			}
		}()
	}
	wg.Wait()
}

// errWrite is the connection failure failingWriter reports.
var errWrite = errors.New("connection write failed")

// failingWriter fails its k-th write (1-based) and every one after it,
// and counts the writes it was given.
type failingWriter struct {
	k, writes int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes >= w.k {
		return 0, errWrite
	}
	return len(p), nil
}

// TestScanWriteErrorsSurface: whichever write to the connection fails —
// the unbuffered stream header, any flush of the frame buffer, or the
// final flush — Scan returns that write's error, timed or not.
func TestScanWriteErrorsSurface(t *testing.T) {
	defer alp.DisableStats()
	ctx := context.Background()
	values := ingestWindow(t, "City-Temp", 4*vector.RowGroupSize)
	data := alp.Encode(values)
	col, err := format.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	info, err := reg.Put(ctx, "temp", col, data)
	if err != nil {
		t.Fatal(err)
	}
	c, err := reg.Column(ctx, "temp")
	if err != nil {
		t.Fatal(err)
	}
	all := engine.Between(math.Inf(-1), math.Inf(1))
	last := info.NumRowGroups - 1
	for _, stats := range []bool{false, true} {
		if stats {
			alp.EnableStats()
		} else {
			alp.DisableStats()
		}
		count := &failingWriter{k: math.MaxInt}
		if rows, err := c.Scan(ctx, all, 0, last, count); err != nil || rows != len(values) {
			t.Fatalf("scan: %d rows, err %v; want %d", rows, err, len(values))
		}
		if count.writes < 4 {
			t.Fatalf("a %d-row scan made %d writes; the test needs several buffer flushes", len(values), count.writes)
		}
		for k := 1; k <= count.writes; k++ {
			if _, err := c.Scan(ctx, all, 0, last, &failingWriter{k: k}); !errors.Is(err, errWrite) {
				t.Errorf("stats %v: write %d of %d failed, Scan returned %v", stats, k, count.writes, err)
			}
		}
	}
}
