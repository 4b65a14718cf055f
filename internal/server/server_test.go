package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/goalp/alp"
	"github.com/goalp/alp/client"
	"github.com/goalp/alp/internal/engine"
)

// dataset synthesizes a decimal-heavy column spanning several
// row-groups, with runs that make zone-map skipping meaningful.
func dataset(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	level := 100.0
	for i := range out {
		if i%1024 == 0 {
			level = float64(rng.Intn(200))
		}
		out[i] = math.Round((level+rng.Float64()*10)*100) / 100
	}
	return out
}

func newTestServer(t *testing.T, opts Options) (*Server, *client.Client) {
	t.Helper()
	srv := New(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, client.New(ts.URL)
}

// TestEndToEndAggBitIdentical is the headline integration test: a
// client ingests a dataset over HTTP, runs a pushdown FilterAgg via
// /agg, and the result is bit-identical to the same predicate
// evaluated in-process on the same values — also when the request asks
// for four scan threads, since ?threads= changes only speed.
func TestEndToEndAggBitIdentical(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	t.Cleanup(ts.Close)
	cl := client.New(ts.URL)
	ctx := context.Background()
	values := dataset(2*102400+7777, 1) // 3 row-groups, ragged tail

	info, err := cl.Ingest(ctx, "prices", values)
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if info.Values != len(values) {
		t.Fatalf("ingest reported %d values, want %d", info.Values, len(values))
	}
	if info.BitsPerValue >= 64 {
		t.Errorf("served column did not compress: %.2f bits/value", info.BitsPerValue)
	}

	cases := []struct {
		name   string
		remote client.Predicate
		raw    string // the same predicate as query parameters
		local  engine.Predicate
	}{
		{"between", client.Between(120, 180), "lo=120&hi=180", engine.Between(120, 180)},
		{"ge", client.GE(150.55), "ge=150.55", engine.GE(150.55)},
		{"lt", client.LT(42.01), "lt=42.01", engine.LT(42.01)},
		{"gt", client.GT(199.99), "gt=199.99", engine.GT(199.99)},
		{"eq", client.EQ(values[12345]), "eq=" + fmtFloat(values[12345]), engine.EQ(values[12345])},
		{"all", client.All(), "", engine.Between(math.Inf(-1), math.Inf(1))},
		{"empty", client.Between(5000, 6000), "lo=5000&hi=6000", engine.Between(5000, 6000)},
		{"and", client.GE(100).And(client.LE(150)), "ge=100&le=150", engine.Between(100, 150)},
	}
	rel := engine.BuildALP(values)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := cl.Agg(context.Background(), "prices", tc.remote)
			if err != nil {
				t.Fatalf("remote agg: %v", err)
			}
			want, wantTouched := rel.FilterAgg(1, tc.local)
			if got.Count != want.Count {
				t.Fatalf("count = %d, want %d", got.Count, want.Count)
			}
			if math.Float64bits(got.Sum) != math.Float64bits(want.Sum) {
				t.Errorf("sum = %x (%v), want %x (%v)",
					math.Float64bits(got.Sum), got.Sum, math.Float64bits(want.Sum), want.Sum)
			}
			if math.Float64bits(got.Min) != math.Float64bits(want.Min) {
				t.Errorf("min = %v, want %v", got.Min, want.Min)
			}
			if math.Float64bits(got.Max) != math.Float64bits(want.Max) {
				t.Errorf("max = %v, want %v", got.Max, want.Max)
			}
			if got.Touched != wantTouched {
				t.Errorf("touched = %d, want %d", got.Touched, wantTouched)
			}

			// Count endpoint agrees.
			n, err := cl.Count(context.Background(), "prices", tc.remote)
			if err != nil {
				t.Fatalf("remote count: %v", err)
			}
			if n != want.Count {
				t.Errorf("count endpoint = %d, want %d", n, want.Count)
			}

			// Four scan threads give the same bits.
			q := "threads=4"
			if tc.raw != "" {
				q = tc.raw + "&" + q
			}
			var par aggResponse
			getJSON(t, ts.URL+"/v1/columns/prices/agg?"+q, &par)
			if par.Threads != 4 || par.Count != want.Count || par.Touched != wantTouched ||
				par.Sum != fmtFloat(want.Sum) || par.Min != fmtFloat(want.Min) || par.Max != fmtFloat(want.Max) {
				t.Errorf("threads=4 agg = %+v, want %+v", par, want)
			}
		})
	}
}

// getJSON GETs url and decodes its 200 JSON body into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

func TestScanStreamsQualifyingRows(t *testing.T) {
	_, cl := newTestServer(t, Options{})
	ctx := context.Background()
	values := dataset(102400+512, 2)
	if _, err := cl.Ingest(ctx, "scan", values); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	lo, hi := 80.0, 120.0
	got, err := cl.Scan(ctx, "scan", client.Between(lo, hi))
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	var want []float64
	for _, v := range values {
		if v >= lo && v <= hi {
			want = append(want, v)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("scan returned %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestThinClientPaths(t *testing.T) {
	_, cl := newTestServer(t, Options{})
	ctx := context.Background()
	values := dataset(4096, 3)
	// Mix in values that force exceptions and cover edge encodings.
	values[0] = math.Inf(1)
	values[1] = math.Copysign(0, -1)
	values[2] = math.NaN()
	if _, err := cl.Ingest(ctx, "thin", values); err != nil {
		t.Fatalf("ingest: %v", err)
	}

	// Full column, decoded locally from the compressed stream.
	back, err := cl.Values(ctx, "thin")
	if err != nil {
		t.Fatalf("values: %v", err)
	}
	if len(back) != len(values) {
		t.Fatalf("values returned %d, want %d", len(back), len(values))
	}
	for i := range values {
		if math.Float64bits(back[i]) != math.Float64bits(values[i]) {
			t.Fatalf("value %d = %v, want %v", i, back[i], values[i])
		}
	}

	// One vector, shipped encoded and decoded locally.
	vec, err := cl.Vector(ctx, "thin", 2)
	if err != nil {
		t.Fatalf("vector: %v", err)
	}
	wantVec := values[2*alp.VectorSize : 3*alp.VectorSize]
	if len(vec) != len(wantVec) {
		t.Fatalf("vector holds %d values, want %d", len(vec), len(wantVec))
	}
	for i := range wantVec {
		if math.Float64bits(vec[i]) != math.Float64bits(wantVec[i]) {
			t.Fatalf("vector value %d = %v, want %v", i, vec[i], wantVec[i])
		}
	}

	if _, err := cl.Vector(ctx, "thin", 99); err == nil {
		t.Error("out-of-range vector index did not error")
	}
}

func TestRegistryLifecycle(t *testing.T) {
	_, cl := newTestServer(t, Options{})
	ctx := context.Background()
	if _, err := cl.Ingest(ctx, "a", dataset(1000, 4)); err != nil {
		t.Fatalf("ingest a: %v", err)
	}
	if _, err := cl.Ingest(ctx, "b", dataset(1000, 5)); err != nil {
		t.Fatalf("ingest b: %v", err)
	}
	names, err := cl.List(ctx)
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("list = %v, want [a b]", names)
	}

	// Replace is an atomic swap: new data visible afterwards.
	repl := dataset(2000, 6)
	if _, err := cl.Ingest(ctx, "a", repl); err != nil {
		t.Fatalf("replace a: %v", err)
	}
	info, err := cl.Info(ctx, "a")
	if err != nil {
		t.Fatalf("info: %v", err)
	}
	if info.Values != 2000 {
		t.Fatalf("replaced column has %d values, want 2000", info.Values)
	}

	if err := cl.Delete(ctx, "b"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := cl.Delete(ctx, "b"); err == nil {
		t.Error("double delete did not error")
	}
	var apiErr *client.APIError
	if _, err := cl.Info(ctx, "b"); err == nil {
		t.Error("info on deleted column did not error")
	} else if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Errorf("info on deleted column: %v, want 404", err)
	}
}

// TestClientRetriesShedLoad proves the client rides through shed load:
// the server 429s the first two attempts, then succeeds.
func TestClientRetriesShedLoad(t *testing.T) {
	srv := New(Options{})
	var mu sync.Mutex
	fails := 2
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		shed := fails > 0
		if shed {
			fails--
		}
		mu.Unlock()
		if shed && strings.HasSuffix(r.URL.Path, "/agg") {
			w.Header().Set("Retry-After", "0")
			httpError(w, http.StatusTooManyRequests, "synthetic shed")
			return
		}
		srv.Handler().ServeHTTP(w, r)
	})
	ts := httptest.NewServer(handler)
	defer ts.Close()
	ctx := context.Background()
	cl := client.New(ts.URL, client.WithBackoff(time.Millisecond, 10*time.Millisecond))
	if _, err := cl.Ingest(ctx, "col", dataset(512, 9)); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if _, err := cl.Agg(ctx, "col", client.All()); err != nil {
		t.Fatalf("agg did not survive shed load: %v", err)
	}

	// The client's own counters saw the shedding: the ingest consumed
	// one synthetic failure without shedding (only /agg sheds), so the
	// agg took one 429, one retry, and real backoff time.
	st := cl.Stats()
	if st.Calls != 2 { // ingest + agg
		t.Errorf("Stats().Calls = %d, want 2", st.Calls)
	}
	if st.Attempts != 3 { // ingest, agg x2
		t.Errorf("Stats().Attempts = %d, want 3", st.Attempts)
	}
	if st.Retries != 1 {
		t.Errorf("Stats().Retries = %d, want 1", st.Retries)
	}
	if st.Shed != 1 {
		t.Errorf("Stats().Shed = %d, want 1", st.Shed)
	}
	if st.ServerErrors != 0 || st.TransportErrors != 0 {
		t.Errorf("Stats() = %+v, want no server/transport errors", st)
	}
	if st.BackoffNs <= 0 {
		t.Errorf("Stats().BackoffNs = %d, want > 0 after retrying", st.BackoffNs)
	}

	// With retries disabled the same shedding is a hard error, counted
	// but never slept on.
	mu.Lock()
	fails = 2
	mu.Unlock()
	noRetry := client.New(ts.URL, client.WithRetries(0))
	if _, err := noRetry.Agg(ctx, "col", client.All()); err == nil {
		t.Error("agg with retries disabled did not error under shed load")
	}
	if st := noRetry.Stats(); st.Shed != 1 || st.Retries != 0 || st.BackoffNs != 0 {
		t.Errorf("no-retry Stats() = %+v, want one shed, no retries, no backoff", st)
	}
}

// TestMetricsEndpoint checks the service counters flow through
// /metrics when stats collection is on.
func TestMetricsEndpoint(t *testing.T) {
	alp.EnableStats()
	defer alp.DisableStats()
	alp.ResetStats()
	_, cl := newTestServer(t, Options{})
	ctx := context.Background()
	if _, err := cl.Ingest(ctx, "m", dataset(2048, 11)); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if _, err := cl.Agg(ctx, "m", client.GE(50)); err != nil {
		t.Fatalf("agg: %v", err)
	}
	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if m["server_requests"] < 2 {
		t.Errorf("server_requests = %d, want >= 2", m["server_requests"])
	}
	if m["server_bytes_in"] != 2048*8 {
		t.Errorf("server_bytes_in = %d, want %d", m["server_bytes_in"], 2048*8)
	}
	if m["server_scans"] < 1 {
		t.Errorf("server_scans = %d, want >= 1", m["server_scans"])
	}
	if m["server_bytes_out"] == 0 {
		t.Error("server_bytes_out = 0, want > 0")
	}
	s := alp.ReadStats()
	if s.ServerRequests != m["server_requests"] {
		t.Errorf("alp.ReadStats().ServerRequests = %d, /metrics says %d", s.ServerRequests, m["server_requests"])
	}
}

// TestPredicateConjunctions pins the repeated-parameter contract: the
// client's And emits one query key per conjunct, and the server
// intersects every occurrence so the tightest bounds win — the
// documented semantics the old one-value-per-key parser rejected.
func TestPredicateConjunctions(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := context.Background()
	cl := client.New(ts.URL)
	values := dataset(102400, 21)
	if _, err := cl.Ingest(ctx, "conj", values); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	rel := engine.BuildALP(values)

	cases := []struct {
		name   string
		remote client.Predicate
		local  engine.Predicate
	}{
		{"ge and ge", client.GE(100).And(client.GE(140)), engine.GE(140)},
		{"chained and", client.GE(100).And(client.GE(140)).And(client.LE(150)), engine.Between(140, 150)},
		{"between and between", client.Between(80, 160).And(client.Between(100, 150)), engine.Between(100, 150)},
		{"eq and eq", client.EQ(values[7]).And(client.EQ(values[7])), engine.EQ(values[7])},
		{"contradiction", client.LT(100).And(client.GT(150)), engine.Predicate{Lo: math.Nextafter(150, math.Inf(1)), Hi: math.Nextafter(100, math.Inf(-1))}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := cl.Agg(ctx, "conj", tc.remote)
			if err != nil {
				t.Fatalf("agg: %v", err)
			}
			want, _ := rel.FilterAgg(1, tc.local)
			if got.Count != want.Count {
				t.Fatalf("count = %d, want %d", got.Count, want.Count)
			}
			if math.Float64bits(got.Sum) != math.Float64bits(want.Sum) {
				t.Errorf("sum = %v, want %v", got.Sum, want.Sum)
			}
		})
	}

	// Raw repeated keys take the same intersection path.
	resp, err := http.Get(ts.URL + "/v1/columns/conj/agg?ge=1&ge=2&le=300")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeated ge: status %d, want 200", resp.StatusCode)
	}
}

// TestIngestErrorTearsDownEncodePool proves a failed ingest does not
// leak the parallel Writer's worker goroutines: each bad request used
// to strand a full encode pool (workers + row-group buffers) forever.
func TestIngestErrorTearsDownEncodePool(t *testing.T) {
	srv := New(Options{IngestWorkers: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		resp, err := http.Post(ts.URL+"/v1/columns/leak", "application/x-alp-f64le",
			strings.NewReader("123")) // misaligned: 3 trailing bytes
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("misaligned ingest %d: status %d, want 400", i, resp.StatusCode)
		}
	}
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d after failed ingests: encode pool leaked",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestScanDeadlineSurfacesAsError proves a scan cut short by the
// request deadline is an error at the client, never a silently partial
// result: the server aborts the connection instead of ending the
// 8-byte-aligned stream cleanly.
func TestScanDeadlineSurfacesAsError(t *testing.T) {
	srv := New(Options{RequestTimeout: 50 * time.Millisecond})
	var slowScan atomic.Bool // toggled, not the hook itself: the aborted handler may outlive the scan call
	srv.testHook = func() {
		if slowScan.Load() {
			time.Sleep(200 * time.Millisecond) // outlive the deadline mid-handler
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := context.Background()
	cl := client.New(ts.URL, client.WithRetries(0))
	if _, err := cl.Ingest(ctx, "col", dataset(4096, 22)); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	slowScan.Store(true)
	if _, err := cl.Scan(ctx, "col", client.All()); err == nil {
		t.Fatal("scan truncated by the server deadline returned rows with nil error")
	}
	slowScan.Store(false)

	// A scan that completes — including one matching nothing, whose
	// body is empty — carries the completion trailer and succeeds.
	rows, err := cl.Scan(ctx, "col", client.Between(1e9, 2e9))
	if err != nil {
		t.Fatalf("empty scan: %v", err)
	}
	if len(rows) != 0 {
		t.Fatalf("empty scan returned %d rows", len(rows))
	}
}

// TestIngestMatchesLocalEncode proves the served bytes are the same
// stream a local Encode produces — the wire adds nothing.
func TestIngestMatchesLocalEncode(t *testing.T) {
	_, cl := newTestServer(t, Options{})
	ctx := context.Background()
	values := dataset(102400+999, 12)
	if _, err := cl.Ingest(ctx, "ident", values); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	data, err := cl.Compressed(ctx, "ident")
	if err != nil {
		t.Fatalf("compressed: %v", err)
	}
	if want := alp.Encode(values); !bytes.Equal(data, want) {
		t.Fatalf("served stream differs from local Encode (%d vs %d bytes)", len(data), len(want))
	}
}
