package server

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/goalp/alp"
	"github.com/goalp/alp/client"
	"github.com/goalp/alp/internal/engine"
	"github.com/goalp/alp/internal/format"
	"github.com/goalp/alp/internal/metricstore"
	"github.com/goalp/alp/internal/vector"
)

// benchColumn ingests one ~10-row-group column into a fresh server and
// returns the HTTP client plus the equivalent in-process views, so the
// served and local paths aggregate identical storage.
func benchColumn(b *testing.B) (*client.Client, *engine.Relation, *format.Column) {
	b.Helper()
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	cl := client.New(ts.URL)
	values := dataset(10*102400, 42)
	if _, err := cl.Ingest(context.Background(), "bench", values); err != nil {
		b.Fatalf("ingest: %v", err)
	}
	b.SetBytes(int64(len(values) * 8))
	return cl, engine.BuildALP(values), format.EncodeColumn(values)
}

// BenchmarkAggServed measures a filtered aggregate through the full
// HTTP path: predicate parsing, pushdown scan, JSON response.
func BenchmarkAggServed(b *testing.B) {
	alp.DisableStats()
	cl, _, _ := benchColumn(b)
	pred := client.Between(80, 160)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Agg(ctx, "bench", pred); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAggServedObsOn is the same served aggregate with the full
// observability layer recording: endpoint latency histograms, sampled
// stage histograms and the structured access path. The EXPERIMENTS.md
// obs-on/off table comes from this pair; the delta is the end-to-end
// cost of deep observability on a served workload.
func BenchmarkAggServedObsOn(b *testing.B) {
	cl, _, _ := benchColumn(b)
	alp.EnableStats()
	b.Cleanup(alp.DisableStats)
	pred := client.Between(80, 160)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Agg(ctx, "bench", pred); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAggServedRecorderOn is the obs-on served aggregate with the
// metrics-history recorder additionally running at an aggressive 10ms
// scrape interval (1000x the default), so every benchmark iteration
// competes with live snapshot + delta + seal work. The delta against
// BenchmarkAggServedObsOn is the end-to-end cost of self-hosted
// metrics history; the reported bits/value is the compression the
// store achieved on the telemetry this very workload generated.
func BenchmarkAggServedRecorderOn(b *testing.B) {
	mon := metricstore.New(metricstore.Options{
		Interval:      10 * time.Millisecond,
		WindowSamples: 64,
	})
	srv := New(Options{MetricsHistory: mon})
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	cl := client.New(ts.URL)
	values := dataset(10*102400, 42)
	if _, err := cl.Ingest(context.Background(), "bench", values); err != nil {
		b.Fatalf("ingest: %v", err)
	}
	b.SetBytes(int64(len(values) * 8))
	alp.EnableStats()
	b.Cleanup(alp.DisableStats)
	mon.ScrapeOnce()
	mon.Start()
	b.Cleanup(mon.Stop)
	pred := client.Between(80, 160)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Agg(ctx, "bench", pred); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	mon.Stop()
	mon.Flush()
	if st := mon.Stats(); st.SealedWindows > 0 {
		b.ReportMetric(st.BitsPerValue, "bits/value")
	}
}

// BenchmarkAggInProcess is the same aggregate on the same values
// without the network: the floor the served path is compared against.
func BenchmarkAggInProcess(b *testing.B) {
	_, rel, _ := benchColumn(b)
	pred := engine.Between(80, 160)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel.FilterAgg(1, pred)
	}
}

// BenchmarkScanServed streams qualifying rows back over HTTP as an
// ALPS scan stream and decodes it in the client.
func BenchmarkScanServed(b *testing.B) {
	alp.DisableStats()
	cl, _, _ := benchColumn(b)
	pred := client.Between(80, 160)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Scan(ctx, "bench", pred); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanServedObsOn repeats the served scan with the collector
// on — the worst case for the observability layer, since the scan path
// additionally samples per-write HTTP histograms and per-vector stage
// kernels.
func BenchmarkScanServedObsOn(b *testing.B) {
	cl, _, _ := benchColumn(b)
	alp.EnableStats()
	b.Cleanup(alp.DisableStats)
	pred := client.Between(80, 160)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Scan(ctx, "bench", pred); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanInProcess gathers the same qualifying rows in process
// with the zone-skip + FilterGatherVector loop, minus the ALPS framing,
// the network and the client decode.
func BenchmarkScanInProcess(b *testing.B) {
	_, _, col := benchColumn(b)
	lo, hi := 80.0, 160.0
	var sel [format.SelWords]uint64
	out := make([]float64, vector.Size)
	scratch := make([]int64, vector.Size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		for v := 0; v < col.NumVectors(); v++ {
			if col.Zones != nil && !col.Zones.MayContain(v, lo, hi) {
				continue
			}
			n, _ := col.FilterGatherVector(v, lo, hi, sel[:], out, scratch)
			total += n
		}
		_ = total
	}
}
