package cluster_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"github.com/goalp/alp/internal/cluster"
	"github.com/goalp/alp/internal/engine"
	"github.com/goalp/alp/internal/format"
	"github.com/goalp/alp/internal/server"
)

// BenchmarkAggClustered is the scaling point recorded in
// BENCH_core.json (`make bench-snapshot` → clustered_agg): a filtered
// SUM/COUNT aggregate pushed through the coordinator at 1, 2 and 4
// loopback alpserved backends. Four row-groups of data, so every shard
// count divides the work evenly. mvs_per_sec is column values
// aggregated per wall second; on a host with cores to spare the
// 4-shard point should exceed 1.8x the 1-shard one (see
// EXPERIMENTS.md for the recorded numbers and the single-core caveat).
func BenchmarkAggClustered(b *testing.B) {
	const n = 4 * 102400
	values := make([]float64, n)
	for i := range values {
		values[i] = float64((i*7919)%100000) / 100
	}
	stream := format.EncodeColumn(values).Marshal()
	pred := engine.Between(250, 749.995)
	ctx := context.Background()

	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			backends := make([]*httptest.Server, shards)
			urls := make([]string, shards)
			for i := range backends {
				backends[i] = httptest.NewServer(server.New(server.Options{}).Handler())
				urls[i] = backends[i].URL
			}
			defer func() {
				for _, ts := range backends {
					ts.Close()
				}
			}()
			co := cluster.New(urls, cluster.Options{})
			defer co.Close()
			if _, err := co.Put(ctx, "bench", stream); err != nil {
				b.Fatalf("ingest: %v", err)
			}

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coAgg(ctx, co, "bench", pred); err != nil {
					b.Fatalf("agg: %v", err)
				}
			}
			b.StopTimer()
			sec := b.Elapsed().Seconds()
			if sec > 0 {
				b.ReportMetric(float64(n)*float64(b.N)/sec/1e6, "mvs_per_sec")
			}
		})
	}
}
