// clustered.go is the clustered-aggregate scaling rig: the same
// filtered SUM/COUNT pushdown measured through the alpcluster
// coordinator at increasing shard counts, every backend a real
// alpserved handler on its own loopback listener. The point of the
// series is the ROADMAP scaling claim — partials are merged in fixed
// row-group order, so adding shards changes wall time but never the
// bits — and the `clustered_agg` series in BENCH_core.json records
// whether this host actually realizes the parallelism (a single-core
// container cannot; see EXPERIMENTS.md).
package servedbench

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"runtime"

	"github.com/goalp/alp/internal/bench"
	"github.com/goalp/alp/internal/cluster"
	"github.com/goalp/alp/internal/engine"
	"github.com/goalp/alp/internal/format"
	"github.com/goalp/alp/internal/server"
)

// MeasureClusteredAgg times the coordinator's filtered aggregate over
// an n-value column at each shard count, verifying every configuration
// bit-identical (Float64bits) against the in-process engine's merged
// partials before timing it. SpeedupOver1 on each entry is relative to
// the 1-shard point of the same run, so shards must include 1.
func MeasureClusteredAgg(n int, shards []int, opt bench.Options) ([]bench.ClusteredAggEntry, error) {
	values := column(n)
	stream := format.EncodeColumn(values).Marshal()
	pred := engine.Between(250, 749.995) // the middle half of column's [0, 1000) spread
	parts, _ := engine.BuildALP(values).FilterAggPartials(1, pred, nil)
	want := engine.MergeAggs(parts)

	mvs := func(sec float64) float64 {
		if sec <= 0 {
			return 0
		}
		return float64(n) / sec / 1e6
	}
	ctx := context.Background()
	var entries []bench.ClusteredAggEntry
	base := 0.0
	for _, s := range shards {
		backends := make([]*httptest.Server, s)
		urls := make([]string, s)
		for i := range backends {
			backends[i] = httptest.NewServer(server.New(server.Options{}).Handler())
			urls[i] = backends[i].URL
		}
		co := cluster.New(urls, cluster.Options{})
		if _, err := co.Put(ctx, "sweep", stream); err != nil {
			return nil, fmt.Errorf("clustered ingest (%d shards): %w", s, err)
		}
		// The coordinator's partials merged in row-group order, as the
		// shell's /agg does, without the shell's HTTP hop.
		agg := func() (engine.Agg, error) {
			c, err := co.Column(ctx, "sweep")
			if err != nil {
				return engine.Agg{}, err
			}
			parts, _, err := c.AggPartials(ctx, pred, 1, nil)
			return engine.MergeAggs(parts), err
		}
		got, err := agg()
		if err != nil {
			return nil, fmt.Errorf("clustered agg (%d shards): %w", s, err)
		}
		if math.Float64bits(got.Sum) != math.Float64bits(want.Sum) || got.Count != want.Count {
			return nil, fmt.Errorf("clustered agg (%d shards): got {sum %v, count %d}, in-process {sum %v, count %d}",
				s, got.Sum, got.Count, want.Sum, want.Count)
		}
		runtime.GC()
		sec := bestOfSeconds(func() {
			if _, err := agg(); err != nil {
				panic("clustered agg: " + err.Error())
			}
		}, opt.MinDur)
		co.Close()
		for _, b := range backends {
			b.Close()
		}

		e := bench.ClusteredAggEntry{Shards: s, Rows: int(want.Count), AggMVs: mvs(sec)}
		if s == 1 {
			base = e.AggMVs
		}
		if base > 0 {
			e.SpeedupOver1 = e.AggMVs / base
		}
		entries = append(entries, e)
	}
	return entries, nil
}
