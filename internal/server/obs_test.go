package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/goalp/alp"
	"github.com/goalp/alp/client"
)

// syncBuffer is an io.Writer tests can read while handlers are still
// writing.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestEndpointLatencyHistograms drives every endpoint class through
// the client and checks /metrics reports non-zero latency quantiles
// for each — the flat lat_* keys the collector's histograms render —
// plus samples in the engine-stage histograms the requests exercised.
func TestEndpointLatencyHistograms(t *testing.T) {
	alp.EnableStats()
	defer alp.DisableStats()
	alp.ResetStats()
	_, cl := newTestServer(t, Options{})
	ctx := context.Background()
	values := dataset(4096, 21)
	if _, err := cl.Ingest(ctx, "h", values); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	// A predicate that cuts through the first vector's range, so at
	// least one vector is partially selected and the fused
	// unpack+compare kernel must run (full or empty vectors are
	// answered from zone maps alone).
	lo, hi := values[0], values[0]
	for _, v := range values[:1024] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if _, err := cl.Agg(ctx, "h", client.GE((lo+hi)/2)); err != nil {
		t.Fatalf("agg: %v", err)
	}
	if _, err := cl.Count(ctx, "h", client.LE(150)); err != nil {
		t.Fatalf("count: %v", err)
	}
	if _, err := cl.Scan(ctx, "h", client.Between(40, 160)); err != nil {
		t.Fatalf("scan: %v", err)
	}
	if _, err := cl.Values(ctx, "h"); err != nil {
		t.Fatalf("values: %v", err)
	}
	if _, err := cl.Info(ctx, "h"); err != nil {
		t.Fatalf("info: %v", err)
	}
	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, ep := range []string{"lat_ingest", "lat_agg", "lat_count", "lat_scan", "lat_data", "lat_meta"} {
		if m[ep+"_count"] < 1 {
			t.Errorf("%s_count = %d, want >= 1", ep, m[ep+"_count"])
		}
		if m[ep+"_p50_ns"] <= 0 {
			t.Errorf("%s_p50_ns = %d, want > 0", ep, m[ep+"_p50_ns"])
		}
		if m[ep+"_p99_ns"] <= 0 {
			t.Errorf("%s_p99_ns = %d, want > 0", ep, m[ep+"_p99_ns"])
		}
		if m[ep+"_p99_ns"] < m[ep+"_p50_ns"] {
			t.Errorf("%s: p99 %d < p50 %d", ep, m[ep+"_p99_ns"], m[ep+"_p50_ns"])
		}
		if m[ep+"_max_ns"] < m[ep+"_p99_ns"] {
			t.Errorf("%s: max %d < p99 %d", ep, m[ep+"_max_ns"], m[ep+"_p99_ns"])
		}
	}
	// The requests above did real codec work: the ingest encoded
	// row-groups, agg/count/scan ran the fused filter kernel, and the
	// scan's response writes were sampled.
	for _, st := range []string{"stage_encode", "stage_filter", "stage_http_write"} {
		if m[st+"_count"] < 1 {
			t.Errorf("%s_count = %d, want >= 1", st, m[st+"_count"])
		}
	}
}

// TestAggEngineSpan: /agg and /count time the engine span in both
// modes, so a partials request (what a coordinator sends) shows its
// engine time in the access log like a merged one does.
func TestAggEngineSpan(t *testing.T) {
	var access syncBuffer
	ts := httptest.NewServer(New(Options{AccessLog: &access}).Handler())
	defer ts.Close()
	if _, err := client.New(ts.URL).Ingest(context.Background(), "spans", dataset(4096, 32)); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	for i, path := range []string{"agg", "agg?partials=rowgroups", "count", "count?partials=rowgroups"} {
		reqID := fmt.Sprintf("span-req-%d", i)
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/columns/spans/"+path, nil)
		req.Header.Set(RequestIDHeader, reqID)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		var rec struct {
			Spans map[string]int64 `json:"spans"`
		}
		if err := json.Unmarshal([]byte(waitForLine(t, &access, reqID)), &rec); err != nil {
			t.Fatalf("%s: access-log line is not JSON: %v", path, err)
		}
		if rec.Spans["engine"] <= 0 {
			t.Errorf("%s: engine span = %d, want > 0", path, rec.Spans["engine"])
		}
	}
}

// TestIngestEncodeSpan: a raw ingest books its row-group encodes,
// summed over the pool's workers, and its marshal as the encode span;
// a compressed ingest encodes nothing and logs none.
func TestIngestEncodeSpan(t *testing.T) {
	var access syncBuffer
	ts := httptest.NewServer(New(Options{AccessLog: &access}).Handler())
	defer ts.Close()
	values := dataset(4*102400, 33)
	for i, c := range []struct {
		contentType string
		body        []byte
		encodes     bool
	}{
		{rawContentType, leBody(values), true},
		{CompressedContentType, alp.Encode(values), false},
	} {
		reqID := fmt.Sprintf("ingest-span-%d", i)
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/columns/spans", bytes.NewReader(c.body))
		req.Header.Set("Content-Type", c.contentType)
		req.Header.Set(RequestIDHeader, reqID)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", c.contentType, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("%s: status %d", c.contentType, resp.StatusCode)
		}
		var rec struct {
			Spans map[string]int64 `json:"spans"`
		}
		if err := json.Unmarshal([]byte(waitForLine(t, &access, reqID)), &rec); err != nil {
			t.Fatalf("%s: access-log line is not JSON: %v", c.contentType, err)
		}
		if got := rec.Spans["encode"]; (got > 0) != c.encodes {
			t.Errorf("%s: encode span = %d, want it logged: %v", c.contentType, got, c.encodes)
		}
	}
}

// waitForLine polls buf until a log line containing token appears.
func waitForLine(t *testing.T, buf *syncBuffer, token string) string {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.Contains(line, token) {
				return line
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no log line containing %q; log so far:\n%s", token, buf.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestMetricsColumnStats checks /metrics carries the per-column
// registry view alongside the counters.
func TestMetricsColumnStats(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := context.Background()
	cl := client.New(ts.URL)
	const n = 4096
	if _, err := cl.Ingest(ctx, "colstats", dataset(n, 7)); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var doc struct {
		Columns map[string]ColumnStats `json:"columns"`
	}
	if err := json.Unmarshal(payload, &doc); err != nil {
		t.Fatalf("/metrics is not valid JSON: %v\n%s", err, payload)
	}
	cs, ok := doc.Columns["colstats"]
	if !ok {
		t.Fatalf("columns missing %q: %s", "colstats", payload)
	}
	if cs.Values != n {
		t.Errorf("columns.colstats.values = %d, want %d", cs.Values, n)
	}
	if cs.CompressedBytes <= 0 || cs.BitsPerValue <= 0 {
		t.Errorf("columns.colstats shape = %+v, want non-zero sizes", cs)
	}
	if cs.NumRowGroups < 1 || cs.NumVectors != (n+1023)/1024 {
		t.Errorf("columns.colstats layout = %+v", cs)
	}
}
