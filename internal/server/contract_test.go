// The contract battery: the shell's tests run against both column
// services it fronts — alpserved's local registry and alpclusterd's
// coordinator over two loopback alpserved backends — so the two
// binaries serve one surface with one behaviour: admission, drain,
// deadlines, request IDs, error mapping, partials, ranged scans and
// exports, and the metrics endpoints.
package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/goalp/alp"
	"github.com/goalp/alp/client"
	"github.com/goalp/alp/internal/cluster"
	"github.com/goalp/alp/internal/engine"
	"github.com/goalp/alp/internal/format"
	"github.com/goalp/alp/internal/obs"
	"github.com/goalp/alp/internal/server"
	"github.com/goalp/alp/internal/vector"
)

var dataset = server.Dataset

// service mounts one column service behind the shell with opts. hold,
// when non-nil, runs inside every /agg and /scan the service answers,
// so a test can keep a request in flight.
type service struct {
	name  string
	mount func(t *testing.T, opts server.Options, hold func()) *server.Server
}

var services = []service{
	{"local", func(t *testing.T, opts server.Options, hold func()) *server.Server {
		srv := server.New(opts)
		srv.SetTestHook(hold)
		return srv
	}},
	{"cluster", func(t *testing.T, opts server.Options, hold func()) *server.Server {
		srv, _ := coordinator(t, opts, hold, server.Options{}, server.Options{})
		return srv
	}},
}

// coordinator mounts a coordinator over loopback alpserved backends,
// one per backendOpts. hold runs in front of the backends' /agg and
// /scan, which keeps the coordinator's request in flight at its own
// shell.
func coordinator(t *testing.T, opts server.Options, hold func(), backendOpts ...server.Options) (*server.Server, *cluster.Coordinator) {
	t.Helper()
	urls := make([]string, len(backendOpts))
	for i := range urls {
		backend := server.New(backendOpts[i]).Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if hold != nil && (strings.HasSuffix(r.URL.Path, "/agg") || strings.HasSuffix(r.URL.Path, "/scan")) {
				hold()
			}
			backend.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	co := cluster.New(urls, cluster.Options{
		Pool: client.PoolOptions{ClientOptions: []client.Option{client.WithRetries(0)}},
	})
	t.Cleanup(co.Close)
	co.Pool().Probe(context.Background())
	return cluster.NewServer(co, opts), co
}

// forEachService runs f once per service, each on its own listener.
func forEachService(t *testing.T, opts server.Options, hold func(), f func(t *testing.T, srv *server.Server, url string)) {
	for _, svc := range services {
		t.Run(svc.name, func(t *testing.T) {
			srv := svc.mount(t, opts, hold)
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			f(t, srv, ts.URL)
		})
	}
}

func status(t *testing.T, method, url string, body io.Reader) int {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

func TestBadRequests(t *testing.T) {
	forEachService(t, server.Options{MaxBodyBytes: 4096}, nil, func(t *testing.T, _ *server.Server, url string) {
		ctx := context.Background()
		if _, err := client.New(url).Ingest(ctx, "col", dataset(128, 7)); err != nil {
			t.Fatalf("ingest: %v", err)
		}
		for _, tc := range []struct {
			name, method, path string
			body               io.Reader
			want               int
		}{
			{"bad predicate", "GET", "/v1/columns/col/agg?ge=not-a-float", nil, 400},
			// A repeated parameter is legal (the bounds intersect), but
			// every occurrence must still parse.
			{"unparseable repeated predicate", "GET", "/v1/columns/col/agg?ge=1&ge=bad", nil, 400},
			{"bad threads", "GET", "/v1/columns/col/agg?threads=0", nil, 400},
			{"misaligned body", "POST", "/v1/columns/misaligned", strings.NewReader("12345"), 400},
			{"bad name", "POST", "/v1/columns/bad%2Fname", bytes.NewReader(make([]byte, 16)), 400},
			{"unknown column", "GET", "/v1/columns/nope/agg", nil, 404},
		} {
			if got := status(t, tc.method, url+tc.path, tc.body); got != tc.want {
				t.Errorf("%s: status %d, want %d", tc.name, got, tc.want)
			}
		}
		// Oversized ingest body (cap is 4096 bytes = 512 values).
		noRetry := client.New(url, client.WithRetries(0))
		if _, err := noRetry.Ingest(ctx, "big", make([]float64, 1024)); err == nil {
			t.Error("oversized ingest did not error")
		} else if !errors.As(err, new(*client.APIError)) {
			t.Errorf("oversized ingest: %v, want APIError", err)
		}
	})
}

// parker holds requests in flight: each parked request signals entered
// and waits for release to close.
type parker struct {
	entered chan struct{}
	release chan struct{}
}

func newParker() *parker {
	return &parker{entered: make(chan struct{}, 16), release: make(chan struct{})}
}

func (p *parker) hold() {
	p.entered <- struct{}{}
	<-p.release
}

// TestLoadShedding proves the limiter returns 429 (not queue collapse)
// past the concurrency cap: with MaxConcurrent=2 and both slots held,
// a further request is shed immediately with Retry-After.
func TestLoadShedding(t *testing.T) {
	for _, svc := range services {
		t.Run(svc.name, func(t *testing.T) {
			p := newParker()
			srv := svc.mount(t, server.Options{MaxConcurrent: 2, RetryAfter: 3 * time.Second}, p.hold)
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			ctx := context.Background()
			cl := client.New(ts.URL)
			// One row-group, so a clustered agg is one backend call.
			if _, err := cl.Ingest(ctx, "col", dataset(2048, 8)); err != nil {
				t.Fatalf("ingest: %v", err)
			}

			// Occupy both slots with held aggregates.
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					resp, err := http.Get(ts.URL + "/v1/columns/col/agg")
					if err == nil {
						resp.Body.Close()
					}
				}()
			}
			<-p.entered
			<-p.entered

			// The third request must be shed, not queued.
			start := time.Now()
			resp, err := http.Get(ts.URL + "/v1/columns/col/agg")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("saturated request: status %d, want 429", resp.StatusCode)
			}
			if ra := resp.Header.Get("Retry-After"); ra != "3" {
				t.Errorf("Retry-After = %q, want \"3\"", ra)
			}
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Errorf("shed response took %v; limiter queued instead of shedding", elapsed)
			}

			// Release the held requests; capacity returns.
			close(p.release)
			wg.Wait()
			if _, err := cl.Agg(ctx, "col", client.All()); err != nil {
				t.Fatalf("agg after release: %v", err)
			}
		})
	}
}

// TestGracefulShutdown proves in-flight requests complete while new
// requests are refused during a drain.
func TestGracefulShutdown(t *testing.T) {
	for _, svc := range services {
		t.Run(svc.name, func(t *testing.T) {
			p := newParker()
			srv := svc.mount(t, server.Options{}, p.hold)
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			ctx := context.Background()
			cl := client.New(ts.URL)
			values := dataset(4096, 10)
			if _, err := cl.Ingest(ctx, "col", values); err != nil {
				t.Fatalf("ingest: %v", err)
			}

			// Start an aggregate that parks inside the service.
			type aggOut struct {
				agg client.Agg
				err error
			}
			inflight := make(chan aggOut, 1)
			noRetry := client.New(ts.URL, client.WithRetries(0))
			go func() {
				a, err := noRetry.Agg(ctx, "col", client.All())
				inflight <- aggOut{a, err}
			}()
			<-p.entered

			// Drain in the background; it must block on the in-flight agg.
			drainDone := make(chan error, 1)
			go func() {
				dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				drainDone <- srv.Shutdown(dctx)
			}()

			// Wait for the drain to take effect before probing, so no
			// probe is admitted and parked.
			deadline := time.Now().Add(5 * time.Second)
			for status(t, "GET", ts.URL+"/readyz", nil) != http.StatusServiceUnavailable {
				if time.Now().After(deadline) {
					t.Fatal("Shutdown never started draining")
				}
				time.Sleep(time.Millisecond)
			}

			// New requests are refused with 503 while the drain waits.
			if got := status(t, "GET", ts.URL+"/v1/columns/col/agg", nil); got != http.StatusServiceUnavailable {
				t.Fatalf("draining server admitted a request (status %d), want 503", got)
			}
			if ok, err := cl.Health(ctx); err != nil || ok {
				t.Errorf("health during drain = (%v, %v), want (false, nil)", ok, err)
			}
			select {
			case err := <-drainDone:
				t.Fatalf("Shutdown returned %v with an agg still in flight", err)
			default:
			}

			// Release the parked agg: it completes with a full result, and
			// only then does Shutdown return.
			close(p.release)
			out := <-inflight
			if out.err != nil {
				t.Fatalf("in-flight agg failed during drain: %v", out.err)
			}
			if out.agg.Count != int64(len(values)) {
				t.Errorf("in-flight agg count = %d, want %d", out.agg.Count, len(values))
			}
			if err := <-drainDone; err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
		})
	}
}

// TestLivenessReadinessSplit pins the probe semantics: /healthz stays
// 200 through a drain (the process is alive) while /readyz flips to
// 503 the moment draining starts.
func TestLivenessReadinessSplit(t *testing.T) {
	forEachService(t, server.Options{}, nil, func(t *testing.T, srv *server.Server, url string) {
		if got := status(t, "GET", url+"/healthz", nil); got != http.StatusOK {
			t.Errorf("/healthz before drain = %d", got)
		}
		if got := status(t, "GET", url+"/readyz", nil); got != http.StatusOK {
			t.Errorf("/readyz before drain = %d", got)
		}
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		if got := status(t, "GET", url+"/healthz", nil); got != http.StatusOK {
			t.Errorf("/healthz during drain = %d, want 200 (liveness)", got)
		}
		if got := status(t, "GET", url+"/readyz", nil); got != http.StatusServiceUnavailable {
			t.Errorf("/readyz during drain = %d, want 503 (readiness)", got)
		}
	})
}

// TestIngestStalledBodyTimesOut proves a client trickling an ingest
// body cannot hold an admission slot past the request deadline: the
// connection-level read deadline bounds the stalled Read.
func TestIngestStalledBodyTimesOut(t *testing.T) {
	forEachService(t, server.Options{RequestTimeout: 200 * time.Millisecond}, nil, func(t *testing.T, _ *server.Server, url string) {
		conn, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fmt.Fprintf(conn, "POST /v1/columns/slow HTTP/1.1\r\nHost: alpserved\r\n"+
			"Content-Type: application/x-alp-f64le\r\nContent-Length: 4096\r\n\r\n")
		conn.Write(make([]byte, 16)) // a sliver of body, then stall forever

		start := time.Now()
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("server never answered the stalled ingest: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestTimeout {
			t.Errorf("stalled ingest: status %d, want 408", resp.StatusCode)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("stalled ingest held its slot for %v; read deadline did not fire", elapsed)
		}
	})
}

// TestAccessLogAndSlowQuery checks the structured logging contract: a
// request carrying X-Alp-Request-Id gets that ID echoed and yields an
// access-log line with it whose span durations sum to roughly the
// request wall time, and (over the threshold — here everything) the
// same line lands in the slow-query log marked slow.
func TestAccessLogAndSlowQuery(t *testing.T) {
	for _, svc := range services {
		t.Run(svc.name, func(t *testing.T) {
			var access, slowLog server.SyncBuffer
			srv := svc.mount(t, server.Options{
				AccessLog:          &access,
				SlowQueryLog:       &slowLog,
				SlowQueryThreshold: time.Nanosecond,
			}, nil)
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			if _, err := client.New(ts.URL).Ingest(context.Background(), "logged", dataset(4096, 31)); err != nil {
				t.Fatalf("ingest: %v", err)
			}

			const reqID = "test-req-0042"
			req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/columns/logged/scan?ge=50", nil)
			req.Header.Set(server.RequestIDHeader, reqID)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("scan: %v", err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("scan status %d", resp.StatusCode)
			}
			if len(body) == 0 {
				t.Fatal("scan returned no rows")
			}
			if got := resp.Header.Get(server.RequestIDHeader); got != reqID {
				t.Errorf("response %s = %q, want %q (client ID echoed)", server.RequestIDHeader, got, reqID)
			}

			// The log line is written in a deferred func racing the
			// response; poll briefly.
			line := server.WaitForLine(t, &access, reqID)
			var rec struct {
				ID       string           `json:"id"`
				Method   string           `json:"method"`
				Path     string           `json:"path"`
				Status   int              `json:"status"`
				BytesOut int64            `json:"bytes_out"`
				DurNs    int64            `json:"dur_ns"`
				Spans    map[string]int64 `json:"spans"`
				Slow     bool             `json:"slow"`
			}
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("access-log line is not JSON: %v\n%s", err, line)
			}
			if rec.Method != "GET" || rec.Path != "/v1/columns/logged/scan" || rec.Status != 200 {
				t.Errorf("access record = %+v", rec)
			}
			if rec.BytesOut != int64(len(body)) {
				t.Errorf("bytes_out = %d, body was %d", rec.BytesOut, len(body))
			}
			if rec.DurNs <= 0 {
				t.Fatalf("dur_ns = %d", rec.DurNs)
			}
			for _, span := range []string{"registry", "engine", "write"} {
				if rec.Spans[span] <= 0 {
					t.Errorf("span %q = %d, want > 0 for a scan", span, rec.Spans[span])
				}
			}
			var sum int64
			for _, ns := range rec.Spans {
				sum += ns
			}
			// "other" absorbs unattributed wall time, so the spans
			// reconstruct the request duration up to the clock reads
			// between boundaries.
			if sum < rec.DurNs*9/10 || sum > rec.DurNs*11/10 {
				t.Errorf("span sum %d not ~ dur_ns %d", sum, rec.DurNs)
			}
			if !rec.Slow {
				t.Error("1ns threshold: the access line should be marked slow")
			}
			if slowLine := server.WaitForLine(t, &slowLog, reqID); !strings.Contains(slowLine, `"slow":true`) {
				t.Errorf("slow-query line lacks slow marker: %s", slowLine)
			}
		})
	}
}

func TestAggPartialsMatchEngine(t *testing.T) {
	forEachService(t, server.Options{}, nil, func(t *testing.T, _ *server.Server, url string) {
		cl := client.New(url)
		ctx := context.Background()
		values := dataset(3*vector.RowGroupSize+999, 5)
		if _, err := cl.Ingest(ctx, "c", values); err != nil {
			t.Fatal(err)
		}
		rel := engine.BuildALPFromColumn("c", format.EncodeColumn(values))
		want, _ := rel.FilterAggPartials(1, engine.GE(100), nil)

		got, _, err := cl.AggPartials(ctx, "c", client.GE(100), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d partials, want %d", len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i].Sum) != math.Float64bits(want[i].Sum) ||
				got[i].Count != want[i].Count ||
				math.Float64bits(got[i].Min) != math.Float64bits(want[i].Min) ||
				math.Float64bits(got[i].Max) != math.Float64bits(want[i].Max) {
				t.Fatalf("partial %d: %+v != %+v", i, got[i], want[i])
			}
		}

		// Subset request, answered in request order.
		sub, _, err := cl.AggPartials(ctx, "c", client.GE(100), []int{2, 0})
		if err != nil {
			t.Fatal(err)
		}
		if len(sub) != 2 ||
			math.Float64bits(sub[0].Sum) != math.Float64bits(want[2].Sum) ||
			math.Float64bits(sub[1].Sum) != math.Float64bits(want[0].Sum) {
			t.Fatalf("subset partials wrong: %+v", sub)
		}

		counts, err := cl.CountPartials(ctx, "c", client.GE(100), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(counts) != len(want) {
			t.Fatalf("%d count partials, want %d", len(counts), len(want))
		}
		for i := range want {
			if counts[i] != want[i].Count {
				t.Fatalf("count partial %d: %d != %d", i, counts[i], want[i].Count)
			}
		}
		one, err := cl.CountPartials(ctx, "c", client.GE(100), []int{1})
		if err != nil {
			t.Fatal(err)
		}
		if len(one) != 1 || one[0] != want[1].Count {
			t.Fatalf("count partials of row-group 1 = %v, want [%d]", one, want[1].Count)
		}

		// Out-of-range subset is a 400, not a panic.
		if _, _, err := cl.AggPartials(ctx, "c", client.GE(100), []int{99}); err == nil {
			t.Fatal("out-of-range rgs accepted")
		}
	})
}

func decodeScan(t *testing.T, payload []byte, contentType string) []float64 {
	t.Helper()
	if contentType == alp.ScanStreamContentType {
		rows, err := alp.DecodeScanStream(payload)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	if len(payload)%8 != 0 {
		t.Fatalf("raw scan payload of %d bytes", len(payload))
	}
	rows := make([]float64, len(payload)/8)
	for i := range rows {
		rows[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[i*8:]))
	}
	return rows
}

func TestScanRowGroupRange(t *testing.T) {
	forEachService(t, server.Options{}, nil, func(t *testing.T, _ *server.Server, url string) {
		cl := client.New(url)
		ctx := context.Background()
		values := dataset(3*vector.RowGroupSize+1234, 6)
		if _, err := cl.Ingest(ctx, "c", values); err != nil {
			t.Fatal(err)
		}
		pred := client.GE(150)
		epred := engine.GE(150)

		for _, rg := range [][2]int{{0, 0}, {1, 2}} {
			// Expected rows of the range, in position order.
			var want []float64
			for _, v := range values[rg[0]*vector.RowGroupSize : min(len(values), (rg[1]+1)*vector.RowGroupSize)] {
				if epred.Match(v) {
					want = append(want, v)
				}
			}
			for _, compressed := range []bool{false, true} {
				payload, ct, rows, err := cl.ScanRange(ctx, "c", pred, rg[0], rg[1], compressed)
				if err != nil {
					t.Fatalf("%v compressed=%v: %v", rg, compressed, err)
				}
				if rows != len(want) {
					t.Fatalf("%v compressed=%v: trailer %d rows, want %d", rg, compressed, rows, len(want))
				}
				got := decodeScan(t, payload, ct)
				if len(got) != len(want) {
					t.Fatalf("%v compressed=%v: %d rows, want %d", rg, compressed, len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%v compressed=%v: row %d differs", rg, compressed, i)
					}
				}
			}
		}

		// Bad ranges are 400s.
		if _, _, _, err := cl.ScanRange(ctx, "c", pred, 3, 99, false); err == nil {
			t.Fatal("out-of-range scan accepted")
		}
		if _, _, _, err := cl.ScanRange(ctx, "c", pred, 2, 1, false); err == nil {
			t.Fatal("inverted scan range accepted")
		}
	})
}

func TestDataRangeExportAndCompressedIngest(t *testing.T) {
	forEachService(t, server.Options{}, nil, func(t *testing.T, _ *server.Server, url string) {
		cl := client.New(url)
		ctx := context.Background()
		values := dataset(2*vector.RowGroupSize+777, 7)
		if _, err := cl.Ingest(ctx, "c", values); err != nil {
			t.Fatal(err)
		}

		// Ranged export is a standalone column holding exactly that range.
		data, err := cl.DataRange(ctx, "c", 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		col, err := format.Unmarshal(data)
		if err != nil {
			t.Fatalf("ranged export does not parse: %v", err)
		}
		if col.N != vector.RowGroupSize {
			t.Fatalf("ranged export holds %d values", col.N)
		}

		// Re-ingest the exported range under a new name: no re-encode,
		// and queries against it answer for the range's values.
		if _, err := cl.IngestCompressed(ctx, "mid", data); err != nil {
			t.Fatal(err)
		}
		stored, err := cl.Compressed(ctx, "mid")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stored, data) {
			t.Fatal("compressed ingest did not store the stream verbatim")
		}
		agg, err := cl.Agg(ctx, "mid", client.All())
		if err != nil {
			t.Fatal(err)
		}
		rel := engine.BuildALPFromColumn("mid", col)
		want, _ := rel.FilterAgg(1, engine.Predicate{Lo: math.Inf(-1), Hi: math.Inf(1)})
		if math.Float64bits(agg.Sum) != math.Float64bits(want.Sum) || agg.Count != want.Count {
			t.Fatalf("agg over re-ingested range: %+v != %+v", agg, want)
		}

		// A corrupt compressed body must not bind.
		if _, err := cl.IngestCompressed(ctx, "bad", []byte("not a column")); err == nil {
			t.Fatal("corrupt compressed ingest accepted")
		}
		if _, err := cl.Info(ctx, "bad"); err == nil {
			t.Fatal("corrupt compressed ingest bound a column")
		}
	})
}

func TestMetricsProm(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	forEachService(t, server.Options{}, nil, func(t *testing.T, _ *server.Server, url string) {
		obs.Active().ServerRequest()
		resp, err := http.Get(url + "/metrics.prom")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
			t.Fatalf("/metrics.prom Content-Type = %q, want %q", ct, obs.PromContentType)
		}
		body, _ := io.ReadAll(resp.Body)
		for _, want := range []string{
			"# TYPE alp_server_requests counter\n",
			"# TYPE alp_lat_scan_ns histogram\n",
			"alp_lat_scan_ns_bucket{le=\"+Inf\"}",
		} {
			if !strings.Contains(string(body), want) {
				t.Errorf("/metrics.prom missing %q", want)
			}
		}
	})
}

// TestRangedScanAndDataMatchAcrossServices: a ranged scan, in either
// encoding, and a ranged export through the coordinator are the bytes
// alpserved sends for the same column.
func TestRangedScanAndDataMatchAcrossServices(t *testing.T) {
	ctx := context.Background()
	values := dataset(3*vector.RowGroupSize+1234, 9)
	clients := make([]*client.Client, len(services))
	for i, svc := range services {
		ts := httptest.NewServer(svc.mount(t, server.Options{}, nil).Handler())
		t.Cleanup(ts.Close)
		clients[i] = client.New(ts.URL)
		if _, err := clients[i].Ingest(ctx, "c", values); err != nil {
			t.Fatalf("%s: ingest: %v", svc.name, err)
		}
	}
	local, clustered := clients[0], clients[1]
	for _, rg := range [][2]int{{0, 0}, {1, 2}, {2, 3}, {3, 3}, {0, 3}} {
		for _, compressed := range []bool{false, true} {
			want, _, wantRows, err := local.ScanRange(ctx, "c", client.Between(120, 180), rg[0], rg[1], compressed)
			if err != nil {
				t.Fatal(err)
			}
			got, _, gotRows, err := clustered.ScanRange(ctx, "c", client.Between(120, 180), rg[0], rg[1], compressed)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) || gotRows != wantRows {
				t.Fatalf("scan %v compressed=%v: clustered %d bytes/%d rows, alpserved %d bytes/%d rows",
					rg, compressed, len(got), gotRows, len(want), wantRows)
			}
		}
		want, err := local.DataRange(ctx, "c", rg[0], rg[1])
		if err != nil {
			t.Fatal(err)
		}
		got, err := clustered.DataRange(ctx, "c", rg[0], rg[1])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("data %v: clustered %d bytes, alpserved %d bytes", rg, len(got), len(want))
		}
	}
}

// TestRequestIDForwardedThroughCoordinator: the ID a client sends to
// the coordinator names the request in the access log of the
// coordinator and of every backend it called.
func TestRequestIDForwardedThroughCoordinator(t *testing.T) {
	var coLog server.SyncBuffer
	backendLogs := make([]server.SyncBuffer, 2)
	srv, co := coordinator(t, server.Options{AccessLog: &coLog}, nil,
		server.Options{AccessLog: &backendLogs[0]}, server.Options{AccessLog: &backendLogs[1]})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := context.Background()

	// A column name whose row-groups land on both backends, so the
	// query calls each of them.
	const numRG = 4
	name := ""
	for i := 0; name == ""; i++ {
		var on [2]bool
		for g := 0; g < numRG; g++ {
			on[co.Map().Place(fmt.Sprint("c", i), g)[0]] = true
		}
		if on[0] && on[1] {
			name = fmt.Sprint("c", i)
		}
	}
	if _, err := client.New(ts.URL).Ingest(ctx, name, dataset(numRG*vector.RowGroupSize, 3)); err != nil {
		t.Fatal(err)
	}

	const reqID = "forwarded-req-7"
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/columns/"+name+"/agg?ge=100", nil)
	req.Header.Set(server.RequestIDHeader, reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get(server.RequestIDHeader) != reqID {
		t.Fatalf("agg: status %d, ID %q", resp.StatusCode, resp.Header.Get(server.RequestIDHeader))
	}
	server.WaitForLine(t, &coLog, reqID)
	for i := range backendLogs {
		server.WaitForLine(t, &backendLogs[i], reqID)
	}
}
