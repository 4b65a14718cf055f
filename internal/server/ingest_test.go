package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"testing"
	"testing/iotest"

	"github.com/goalp/alp"
	"github.com/goalp/alp/client"
	datasets "github.com/goalp/alp/internal/dataset"
	"github.com/goalp/alp/internal/vector"
)

// The ingest battery drives the handler in process, so the body reads
// the server makes are exactly the reads the test's reader delivers.

const rawContentType = "application/x-alp-f64le"

func leBody(values []float64) []byte {
	out := make([]byte, 8*len(values))
	for i, x := range values {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}

// serve runs one request through h and returns the recorder.
func serve(h http.Handler, method, path, contentType string, body io.Reader) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, body)
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func mustIngest(t testing.TB, h http.Handler, name, contentType string, body io.Reader) {
	t.Helper()
	if rec := serve(h, http.MethodPost, "/v1/columns/"+name, contentType, body); rec.Code != http.StatusCreated {
		t.Fatalf("ingest %s: status %d: %s", name, rec.Code, rec.Body)
	}
}

func mustGet(t testing.TB, h http.Handler, path string) []byte {
	t.Helper()
	rec := serve(h, http.MethodGet, path, "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// splitReader ends its reads at each cut offset in turn, then delivers
// the rest in one read.
type splitReader struct {
	data []byte
	cuts []int // increasing
	off  int
}

func (r *splitReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		return 0, io.EOF
	}
	end := len(r.data)
	for _, c := range r.cuts {
		if c > r.off {
			end = min(end, c)
			break
		}
	}
	n := copy(p, r.data[r.off:end])
	r.off += n
	return n, nil
}

// edgeCuts splits a body of n values inside values near its start and
// on both sides of, and at, every row-group edge.
func edgeCuts(n int) []int {
	cuts := []int{3, 13, 8*vector.Size + 4}
	for edge := 8 * vector.RowGroupSize; edge <= 8*n; edge += 8 * vector.RowGroupSize {
		cuts = append(cuts, edge-11, edge-1, edge, edge+5)
	}
	sort.Ints(cuts)
	return cuts
}

// TestIngestChunkedBodies: however the body's bytes are split across
// reads — one byte at a time, halved, or cut mid-value and at
// row-group edges — the stored column is alp.Encode's, serially and
// through the encode pool.
func TestIngestChunkedBodies(t *testing.T) {
	lengths := []int{0, 1, 1023, 1024, 1025, vector.RowGroupSize - 1, vector.RowGroupSize, vector.RowGroupSize + 1, 2*vector.RowGroupSize + 1}
	for _, workers := range []int{1, 3} {
		h := New(Options{IngestWorkers: workers}).Handler()
		for _, n := range lengths {
			values := dataset(n, int64(n))
			body := leBody(values)
			want := alp.Encode(values)
			readers := map[string]io.Reader{
				"onebyte": iotest.OneByteReader(bytes.NewReader(body)),
				"half":    iotest.HalfReader(bytes.NewReader(body)),
				"split":   &splitReader{data: body, cuts: edgeCuts(n)},
			}
			for kind, r := range readers {
				name := fmt.Sprintf("c%d-%s", n, kind)
				mustIngest(t, h, name, rawContentType, r)
				if got := mustGet(t, h, "/v1/columns/"+name+"/data"); !bytes.Equal(got, want) {
					t.Fatalf("workers=%d n=%d %s: /data differs from alp.Encode (%d vs %d bytes)", workers, n, kind, len(got), len(want))
				}
			}
		}
	}
}

// ingestWindow is one 409,600-value window of a dataset the
// benchmark's ingest-mixed workload uploads.
func ingestWindow(tb testing.TB, name string, n int) []float64 {
	tb.Helper()
	d, ok := datasets.ByName(name)
	if !ok {
		tb.Fatalf("no dataset %q", name)
	}
	return d.Generate(n)
}

var ingestDatasets = []string{"City-Temp", "POI-lat", "Gov/10"}

// TestIngestRawMatchesCompressed: the same values ingested raw and as
// their compressed stream answer every read endpoint with the same
// bytes, over an ALP and two ALP_rd row-groups.
func TestIngestRawMatchesCompressed(t *testing.T) {
	values := append(ingestWindow(t, "City-Temp", vector.RowGroupSize), ingestWindow(t, "POI-lat", vector.RowGroupSize+777)...)
	h := New(Options{}).Handler()
	mustIngest(t, h, "raw", rawContentType, bytes.NewReader(leBody(values)))
	mustIngest(t, h, "comp", CompressedContentType, bytes.NewReader(alp.Encode(values)))

	paths := []string{"/data", "/data?rg_lo=1&rg_hi=1", "/data?rg_lo=1"}
	for _, p := range []string{"", "ge=60&le=70", "gt=0.6&lt=0.7", "lo=-1e300&hi=1e300", "eq=61.3", "lo=5&hi=4"} {
		paths = append(paths, "/agg?"+p, "/count?"+p, "/scan?"+p, "/agg?partials=rowgroups&"+p, "/scan?rg_lo=1&rg_hi=2&"+p)
	}
	last := vector.VectorsIn(len(values)) - 1
	for _, i := range []int{0, 99, 100, 150, last} {
		paths = append(paths, fmt.Sprintf("/vectors/%d", i))
	}
	for _, p := range paths {
		raw := mustGet(t, h, "/v1/columns/raw"+p)
		comp := mustGet(t, h, "/v1/columns/comp"+p)
		if !bytes.Equal(raw, comp) {
			t.Errorf("%s: raw ingest answers %d bytes, compressed ingest %d, not the same", p, len(raw), len(comp))
		}
	}
	var rawInfo, compInfo ColumnInfo
	json.Unmarshal(mustGet(t, h, "/v1/columns/raw"), &rawInfo)
	json.Unmarshal(mustGet(t, h, "/v1/columns/comp"), &compInfo)
	if rawInfo.ColumnStats != compInfo.ColumnStats || !rawInfo.UsedRD {
		t.Errorf("column info: raw %+v, compressed %+v", rawInfo.ColumnStats, compInfo.ColumnStats)
	}
}

// TestConcurrentRawIngests: raw ingests of different columns racing
// through one server share the row-group buffers, and each column is
// still alp.Encode of its own values.
func TestConcurrentRawIngests(t *testing.T) {
	ts := httptest.NewServer(New(Options{IngestWorkers: 2}).Handler())
	defer ts.Close()
	cl := client.New(ts.URL)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("col%d", g)
			for round := 0; round < 3; round++ {
				values := dataset(2*vector.RowGroupSize+1000*g+round, int64(10*g+round))
				if _, err := cl.Ingest(ctx, name, values); err != nil {
					errs <- err
					return
				}
				got, err := cl.Compressed(ctx, name)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, alp.Encode(values)) {
					errs <- fmt.Errorf("%s round %d: stored stream differs from alp.Encode", name, round)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkIngestServed is one raw ingest of a 409,600-value window of
// each ingest-mixed dataset through the server's handler, in process:
// body read, encode pool, marshal and registry swap.
func BenchmarkIngestServed(b *testing.B) {
	alp.DisableStats()
	for _, ds := range ingestDatasets {
		body := leBody(ingestWindow(b, ds, 4*vector.RowGroupSize))
		b.Run(ds, func(b *testing.B) {
			h := New(Options{}).Handler()
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				mustIngest(b, h, "bench", rawContentType, bytes.NewReader(body))
			}
		})
	}
}

// ingestBudget bounds the bytes one raw ingest of a 409,600-value
// window allocates, averaged over the three ingest-mixed datasets, once
// the row-group buffers are warm. Measured at 4.2 MB here; before the
// one-pass ingest it was 21.6 MB.
const ingestBudget = 6 << 20

// TestIngestAllocationBudget: a steady stream of raw ingests allocates
// the compressed column and its stream, and no raw row-group memory.
func TestIngestAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	alp.DisableStats()
	h := New(Options{}).Handler()
	bodies := make([][]byte, len(ingestDatasets))
	for i, ds := range ingestDatasets {
		bodies[i] = leBody(ingestWindow(t, ds, 4*vector.RowGroupSize))
	}
	round := func() {
		for i, body := range bodies {
			mustIngest(t, h, fmt.Sprintf("w%d", i), rawContentType, bytes.NewReader(body))
		}
	}
	round() // warm-up: fills the buffer pool
	round()
	const rounds = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < rounds; r++ {
		round()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / uint64(rounds*len(bodies))
	t.Logf("%.2f MB allocated per ingest", float64(per)/1e6)
	if per > ingestBudget {
		t.Errorf("raw ingest allocates %d bytes per 409,600-value window, budget %d", per, ingestBudget)
	}
}

// TestIngestRetainsNoEncoderState: a raw-ingested column retains no
// more heap than the same column ingested compressed, so nothing of
// the encoder — buffers, ALP_rd encode indexes, the Encoder itself —
// outlives the ingest. Nor does a compressed ingest keep more than the
// raw one beyond a small bound: it stores the body's bytes, not the
// spare capacity io.ReadAll grew (about 1.5 MB here).
func TestIngestRetainsNoEncoderState(t *testing.T) {
	temp := ingestWindow(t, "City-Temp", 2<<20)
	poi := ingestWindow(t, "POI-lat", 1<<20)
	rawTemp, rawPOI := leBody(temp), leBody(poi)
	compTemp, compPOI := alp.Encode(temp), alp.Encode(poi)
	heapAfter := func(contentType string, tempBody, poiBody []byte) uint64 {
		srv := New(Options{})
		mustIngest(t, srv.Handler(), "temp", contentType, bytes.NewReader(tempBody))
		mustIngest(t, srv.Handler(), "poi", contentType, bytes.NewReader(poiBody))
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(srv)
		return ms.HeapAlloc
	}
	raw := heapAfter(rawContentType, rawTemp, rawPOI)
	comp := heapAfter(CompressedContentType, compTemp, compPOI)
	t.Logf("heap after raw ingest %.1f MB, after compressed ingest %.1f MB", float64(raw)/1e6, float64(comp)/1e6)
	if raw > comp {
		t.Errorf("raw ingest retains %d heap bytes, compressed ingest of the same column %d", raw, comp)
	}
	const slack = 512 << 10
	if comp > raw+slack {
		t.Errorf("compressed ingest retains %d heap bytes, raw ingest of the same column %d: more than %d over", comp, raw, slack)
	}
	runtime.KeepAlive(rawTemp)
	runtime.KeepAlive(rawPOI)
	runtime.KeepAlive(compTemp)
	runtime.KeepAlive(compPOI)
}
