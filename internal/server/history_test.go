package server

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/goalp/alp/client"
	"github.com/goalp/alp/internal/metricstore"
	"github.com/goalp/alp/internal/obs"
)

// histTestStore builds a deterministic metrics-history store: an obs
// collector exercised between scrapes, driven by an injected clock.
func histTestStore(t *testing.T, scrapes, window int) (*metricstore.Store, int64, int64) {
	t.Helper()
	var c obs.Collector
	ts := int64(1_754_600_000_000_000)
	st := metricstore.New(metricstore.Options{
		WindowSamples: window,
		Source:        c.Snapshot,
		Now:           func() time.Time { return time.UnixMicro(ts) },
	})
	first := ts + 10_000
	for i := 0; i < scrapes; i++ {
		c.Add(obs.ServerRequests, 1)
		c.Observe(obs.HistScan, int64(1000+i))
		ts += 10_000
		st.ScrapeOnce()
	}
	return st, first, ts
}

func TestHistoryEndpoint(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	st, first, last := histTestStore(t, 100, 32)
	srv := New(Options{MetricsHistory: st})
	h := httptest.NewServer(srv.Handler())
	defer h.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(h.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	// Listing: no metric parameter.
	code, body := get("/v1/metrics/history")
	if code != http.StatusOK {
		t.Fatalf("listing: %d %s", code, body)
	}
	var listing struct {
		Series []string          `json:"series"`
		Stats  metricstore.Stats `json:"stats"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Series) == 0 || listing.Stats.Scrapes != 100 {
		t.Fatalf("listing = %d series, %d scrapes; want >0 series, 100 scrapes", len(listing.Series), listing.Stats.Scrapes)
	}

	// Range query: the wire result must round-trip the store's exact
	// float64s (value strings, 'g'/-1).
	sinceSec := strconv.FormatFloat(float64(first)/1e6, 'f', 6, 64)
	untilSec := strconv.FormatFloat(float64(last+1)/1e6, 'f', 6, 64)
	code, body = get("/v1/metrics/history?metric=server_requests&since=" + sinceSec + "&until=" + untilSec + "&step=100ms&agg=sum")
	if code != http.StatusOK {
		t.Fatalf("query: %d %s", code, body)
	}
	var resp historyResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Metric != "server_requests" || resp.Agg != "sum" || len(resp.Points) == 0 {
		t.Fatalf("query response %+v lacks points", resp)
	}
	want, err := st.Query("server_requests", resp.SinceUs, resp.UntilUs, 100*time.Millisecond, metricstore.AggSum)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(resp.Points) {
		t.Fatalf("wire has %d points, store has %d", len(resp.Points), len(want))
	}
	var total float64
	for i, p := range resp.Points {
		v, err := strconv.ParseFloat(p.Value, 64)
		if err != nil {
			t.Fatalf("point %d value %q: %v", i, p.Value, err)
		}
		if math.Float64bits(v) != math.Float64bits(want[i].Value) ||
			p.TsUs != want[i].TsUs || p.Count != want[i].Count {
			t.Fatalf("point %d: wire {%d %q %d} != store {%d %v %d}",
				i, p.TsUs, p.Value, p.Count, want[i].TsUs, want[i].Value, want[i].Count)
		}
		total += v
	}
	// 100 scrapes, one ServerRequest each: the deltas must sum to 100.
	if total != 100 {
		t.Fatalf("server_requests deltas sum to %v, want 100", total)
	}

	// Relative since + default until/step: one bucket, still exact.
	code, body = get("/v1/metrics/history?metric=server_requests&since=-24h&agg=count")
	if code != http.StatusOK {
		t.Fatalf("relative query: %d %s", code, body)
	}

	// Error paths.
	for _, bad := range []string{
		"/v1/metrics/history?metric=no_such_series&since=-1m",
		"/v1/metrics/history?metric=server_requests",                      // missing since
		"/v1/metrics/history?metric=server_requests&since=yesterday",      // unparseable
		"/v1/metrics/history?metric=server_requests&since=-1m&step=zero",  // bad step
		"/v1/metrics/history?metric=server_requests&since=-1m&agg=median", // bad agg
	} {
		if code, body = get(bad); code != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", bad, code, body)
		}
	}

	// The endpoint lands samples in its own latency histogram.
	if snap := obs.Active().Snapshot(); snap.Hists[obs.HistHistory].Count == 0 {
		t.Error("history requests recorded no lat_history samples")
	}
}

// TestHistoryTypedClient runs the typed client against the real server
// and store: listing matches the store schema, and every queried point
// is bit-identical to a direct store query.
func TestHistoryTypedClient(t *testing.T) {
	st, first, last := histTestStore(t, 80, 16)
	srv := New(Options{MetricsHistory: st})
	h := httptest.NewServer(srv.Handler())
	defer h.Close()
	cl := client.New(h.URL)
	ctx := context.Background()

	series, stats, err := cl.MetricsSeries(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != len(st.Names()) || stats.Scrapes != 80 {
		t.Fatalf("listing: %d series %d scrapes, want %d/80", len(series), stats.Scrapes, len(st.Names()))
	}
	if stats.SealedWindows == 0 {
		t.Fatal("no sealed windows after 80 scrapes at window 16")
	}

	res, err := cl.MetricsHistory(ctx, "lat_scan_sum_ns",
		time.UnixMicro(first), time.UnixMicro(last+1), 50*time.Millisecond, "sum")
	if err != nil {
		t.Fatal(err)
	}
	want, err := st.Query("lat_scan_sum_ns", res.SinceUs, res.UntilUs, 50*time.Millisecond, metricstore.AggSum)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 || len(res.Points) != len(want) {
		t.Fatalf("client got %d points, store %d", len(res.Points), len(want))
	}
	for i := range want {
		if math.Float64bits(res.Points[i].Value) != math.Float64bits(want[i].Value) ||
			res.Points[i].TsUs != want[i].TsUs || res.Points[i].Count != want[i].Count {
			t.Fatalf("point %d: client %+v != store %+v", i, res.Points[i], want[i])
		}
	}
}

func TestHistoryDisabled(t *testing.T) {
	srv := New(Options{})
	h := httptest.NewServer(srv.Handler())
	defer h.Close()
	resp, err := http.Get(h.URL + "/v1/metrics/history?metric=server_requests&since=-1m")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled history: %d, want 404", resp.StatusCode)
	}
}

// TestMetricsJSONStable is the /metrics regression: explicit JSON
// content type, parseable body, and two reads whose shared keys — the
// full sorted key set — are ordered identically. With no traffic
// between the reads, counters that only the handler itself bumps may
// move, but ordering and shape must not.
func TestMetricsJSONStable(t *testing.T) {
	st, _, _ := histTestStore(t, 10, 8)
	srv := New(Options{MetricsHistory: st})
	h := httptest.NewServer(srv.Handler())
	defer h.Close()

	read := func() (string, map[string]json.RawMessage) {
		t.Helper()
		resp, err := http.Get(h.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("/metrics Content-Type = %q, want application/json", ct)
		}
		body, _ := io.ReadAll(resp.Body)
		var m map[string]json.RawMessage
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("unmarshal /metrics: %v\n%s", err, body)
		}
		return string(body), m
	}

	raw1, m1 := read()
	raw2, m2 := read()

	// Same key set both reads.
	for k := range m1 {
		if _, ok := m2[k]; !ok {
			t.Errorf("key %q vanished between reads", k)
		}
	}
	for k := range m2 {
		if _, ok := m1[k]; !ok {
			t.Errorf("key %q appeared between reads", k)
		}
	}
	// Both reads must contain the spliced extras and the history stats.
	for _, k := range []string{"columns", "metrics_history", "server_requests", "lat_scan_p99_ns"} {
		if _, ok := m1[k]; !ok {
			t.Errorf("/metrics missing key %q", k)
		}
	}
	// Keys appear in sorted order in the raw bytes.
	for _, raw := range []string{raw1, raw2} {
		keys := topLevelKeys(t, raw)
		for i := 1; i < len(keys); i++ {
			if keys[i-1] >= keys[i] {
				t.Fatalf("/metrics keys not sorted: %q before %q", keys[i-1], keys[i])
			}
		}
	}
}

// topLevelKeys decodes the raw object with json.Decoder tokens, which
// preserve order (maps do not).
func topLevelKeys(t *testing.T, raw string) []string {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(raw))
	var keys []string
	depth := 0
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch v := tok.(type) {
		case json.Delim:
			if v == '{' || v == '[' {
				depth++
			} else {
				depth--
			}
		case string:
			if depth == 1 {
				keys = append(keys, v)
				// Skip the value so a string value is not mistaken for a key.
				var skip json.RawMessage
				if err := dec.Decode(&skip); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return keys
}
