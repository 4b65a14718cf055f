// The clustered differential battery: every query answered through the
// coordinator — over real alpserved backends, through the cluster's
// own HTTP surface — must be bit-identical to the single-node answer,
// at 1, 2 and 4 shards, over a predicate sweep and edge datasets (NaN,
// ±Inf, -0, constants, sub-row-group columns). Plus fault injection:
// killed and hanging backends must surface as the typed
// partial-unavailable error at R=1 and as transparent failover at R=2,
// never as a silent partial.
package cluster_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/goalp/alp"
	"github.com/goalp/alp/client"
	"github.com/goalp/alp/internal/cluster"
	"github.com/goalp/alp/internal/engine"
	"github.com/goalp/alp/internal/format"
	"github.com/goalp/alp/internal/server"
	"github.com/goalp/alp/internal/vector"
)

// backendSet is a pool of real alpserved instances under httptest.
type backendSet struct {
	servers []*httptest.Server
	urls    []string
}

func newBackends(t *testing.T, n int) *backendSet {
	t.Helper()
	bs := &backendSet{}
	for i := 0; i < n; i++ {
		srv := server.New(server.Options{})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		bs.servers = append(bs.servers, ts)
		bs.urls = append(bs.urls, ts.URL)
	}
	return bs
}

// newCluster stands a coordinator over urls and mounts its HTTP
// surface, returning the coordinator and a stock client speaking to
// the cluster exactly as it would to a single alpserved.
func newCluster(t *testing.T, urls []string, replicas int, copts ...func(*cluster.Options)) (*cluster.Coordinator, *client.Client) {
	t.Helper()
	opts := cluster.Options{
		Replicas: replicas,
		Pool: client.PoolOptions{
			ClientOptions: []client.Option{client.WithRetries(0)},
		},
	}
	for _, f := range copts {
		f(&opts)
	}
	co := cluster.New(urls, opts)
	t.Cleanup(co.Close)
	co.Pool().Probe(context.Background())
	ts := httptest.NewServer(cluster.NewServer(co, server.Options{}).Handler())
	t.Cleanup(ts.Close)
	return co, client.New(ts.URL)
}

// coAgg runs a filtered aggregate on the coordinator in process: its
// partials merged in row-group order, as the shell's /agg does.
func coAgg(ctx context.Context, co *cluster.Coordinator, name string, p engine.Predicate) (engine.Agg, error) {
	c, err := co.Column(ctx, name)
	if err != nil {
		return engine.Agg{}, err
	}
	parts, _, err := c.AggPartials(ctx, p, 1, nil)
	return engine.MergeAggs(parts), err
}

// dataset synthesizes a decimal-heavy multi-row-group column.
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

// edgeDataset seeds non-finite and signed-zero values into a normal
// column, spread so every row-group holds some.
func edgeDataset(n int, seed int64) []float64 {
	out := dataset(n, seed)
	for i := 0; i < n; i += 4097 {
		switch (i / 4097) % 4 {
		case 0:
			out[i] = math.NaN()
		case 1:
			out[i] = math.Inf(1)
		case 2:
			out[i] = math.Inf(-1)
		case 3:
			out[i] = math.Copysign(0, -1)
		}
	}
	return out
}

func constantDataset(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 42.42
	}
	return out
}

type sweepCase struct {
	name string
	cp   client.Predicate
	ep   engine.Predicate
}

func predicateSweep() []sweepCase {
	return []sweepCase{
		{"all", client.All(), engine.Between(math.Inf(-1), math.Inf(1))},
		{"ge", client.GE(100), engine.GE(100)},
		{"lt", client.LT(50), engine.LT(50)},
		{"between", client.Between(90, 160), engine.Between(90, 160)},
		{"eq", client.EQ(42.42), engine.EQ(42.42)},
		{"empty", client.GT(1e12), engine.GT(1e12)},
		{"and-same-key", client.Between(0, 150).And(client.Between(50, 100)), engine.Between(50, 100)},
	}
}

// ingestOn ingests values under successive names until placement puts
// at least one row-group on the target backend, returning that name.
// Rendezvous placement depends on the backends' (ephemeral) URLs, so a
// fault test must pick a column the faulty backend actually serves.
func ingestOn(t *testing.T, ctx context.Context, cl *client.Client, target *client.Client, prefix string, values []float64) string {
	t.Helper()
	for i := 0; i < 32; i++ {
		name := fmt.Sprintf("%s%d", prefix, i)
		if _, err := cl.Ingest(ctx, name, values); err != nil {
			t.Fatal(err)
		}
		names, err := target.List(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			if strings.HasPrefix(n, name+"@g") {
				return name
			}
		}
	}
	t.Fatal("no column landed on the target backend in 32 tries")
	return ""
}

// bitsEq is bit-identity, NaN payloads included: the agg wire carries
// every float's Float64bits and the scan wire its exact pattern.
func bitsEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestClusteredDifferentialBattery is the acceptance battery: clustered
// agg/count/scan/data vs the in-process reference, across shard counts,
// datasets and predicates, all through the HTTP surfaces.
func TestClusteredDifferentialBattery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-backend battery")
	}
	datasets := map[string][]float64{
		"random":   dataset(2*vector.RowGroupSize+4096+777, 11),
		"edge":     edgeDataset(3*vector.RowGroupSize+999, 12),
		"constant": constantDataset(vector.RowGroupSize + 5000),
		"tiny":     dataset(3000, 13),
	}
	ctx := context.Background()
	for _, shards := range []int{1, 2, 4} {
		bs := newBackends(t, shards)
		_, cl := newCluster(t, bs.urls, 1)
		for dname, values := range datasets {
			if _, err := cl.Ingest(ctx, dname, values); err != nil {
				t.Fatalf("%d shards, %s: ingest: %v", shards, dname, err)
			}

			// Single-node references. The coordinator's /data contract
			// is bit-identity with the single-node Marshal.
			col := format.EncodeColumn(values)
			single := col.Marshal()
			rel := engine.BuildALPFromColumn(dname, col)

			info, err := cl.Info(ctx, dname)
			if err != nil {
				t.Fatal(err)
			}
			if info.Values != len(values) || info.NumRowGroups != len(col.RowGroups) ||
				info.CompressedBytes != len(single) {
				t.Fatalf("%d shards, %s: info %+v does not match single-node shape", shards, dname, info)
			}

			data, err := cl.Compressed(ctx, dname)
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != string(single) {
				t.Fatalf("%d shards, %s: stitched /data differs from single-node marshal (%d vs %d bytes)",
					shards, dname, len(data), len(single))
			}

			for _, sc := range predicateSweep() {
				parts, wantTouched := rel.FilterAggPartials(1, sc.ep, nil)
				want := engine.MergeAggs(parts)
				// One fold order: the in-process FilterAgg is the merged
				// partials at any thread count.
				for _, threads := range []int{1, 4} {
					if got, _ := rel.FilterAgg(threads, sc.ep); !bitsEq(got.Sum, want.Sum) || got.Count != want.Count ||
						!bitsEq(got.Min, want.Min) || !bitsEq(got.Max, want.Max) {
						t.Fatalf("%d shards, %s/%s: FilterAgg(%d) %+v != merged partials %+v",
							shards, dname, sc.name, threads, got, want)
					}
				}

				agg, err := cl.Agg(ctx, dname, sc.cp)
				if err != nil {
					t.Fatalf("%d shards, %s/%s: agg: %v", shards, dname, sc.name, err)
				}
				if !bitsEq(agg.Sum, want.Sum) || agg.Count != want.Count ||
					!bitsEq(agg.Min, want.Min) || !bitsEq(agg.Max, want.Max) {
					t.Fatalf("%d shards, %s/%s: clustered agg %+v != single-node %+v",
						shards, dname, sc.name, agg, want)
				}
				if agg.Touched != wantTouched {
					t.Fatalf("%d shards, %s/%s: touched %d != %d (zone pruning must survive sharding)",
						shards, dname, sc.name, agg.Touched, wantTouched)
				}

				count, err := cl.Count(ctx, dname, sc.cp)
				if err != nil {
					t.Fatalf("%d shards, %s/%s: count: %v", shards, dname, sc.name, err)
				}
				if count != want.Count {
					t.Fatalf("%d shards, %s/%s: clustered count %d != %d", shards, dname, sc.name, count, want.Count)
				}

				var wantRows []float64
				for _, v := range values {
					if sc.ep.Match(v) {
						wantRows = append(wantRows, v)
					}
				}
				got, err := cl.Scan(ctx, dname, sc.cp)
				if err != nil {
					t.Fatalf("%d shards, %s/%s: scan: %v", shards, dname, sc.name, err)
				}
				if len(got) != len(wantRows) {
					t.Fatalf("%d shards, %s/%s: scan returned %d rows, want %d",
						shards, dname, sc.name, len(got), len(wantRows))
				}
				for i := range wantRows {
					if !bitsEq(got[i], wantRows[i]) {
						t.Fatalf("%d shards, %s/%s: scan row %d: %x != %x",
							shards, dname, sc.name, i, math.Float64bits(got[i]), math.Float64bits(wantRows[i]))
					}
				}
			}
		}
	}
}

// TestClusteredCompressedReframe pushes a single-node compressed stream
// through the cluster (compressed ingest re-frames it shard-wise) and
// checks the reassembled export is the identical stream.
func TestClusteredCompressedReframe(t *testing.T) {
	ctx := context.Background()
	values := dataset(2*vector.RowGroupSize+123, 21)
	single := format.EncodeColumn(values).Marshal()

	bs := newBackends(t, 3)
	_, cl := newCluster(t, bs.urls, 1)
	if _, err := cl.IngestCompressed(ctx, "c", single); err != nil {
		t.Fatal(err)
	}
	data, err := cl.Compressed(ctx, "c")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(single) {
		t.Fatal("re-framed compressed stream is not bit-identical to the original")
	}
}

// TestKilledBackendTypedError: with R=1, losing a backend mid-cluster
// must degrade every query touching its row-groups to the typed
// partial-unavailable refusal (503 whose message names it) — never a
// silent partial.
func TestKilledBackendTypedError(t *testing.T) {
	ctx := context.Background()
	bs := newBackends(t, 3)
	co, cl := newCluster(t, bs.urls, 1)
	values := dataset(3*vector.RowGroupSize+500, 31)
	name := ingestOn(t, ctx, cl, client.New(bs.urls[1]), "k", values)
	if _, err := cl.Agg(ctx, name, client.GE(100)); err != nil {
		t.Fatal(err)
	}

	bs.servers[1].Close()

	if _, err := cl.Agg(ctx, name, client.GE(100)); err == nil {
		t.Fatal("agg over a lost shard succeeded")
	} else if !strings.Contains(err.Error(), "partial_unavailable") {
		t.Fatalf("agg error is not the typed partial refusal: %v", err)
	}
	if _, err := cl.Count(ctx, name, client.GE(100)); err == nil {
		t.Fatal("count over a lost shard succeeded")
	} else if !strings.Contains(err.Error(), "partial_unavailable") {
		t.Fatalf("count error is not the typed partial refusal: %v", err)
	}
	if _, err := cl.Scan(ctx, name, client.GE(100)); err == nil {
		t.Fatal("scan over a lost shard succeeded")
	}
	if _, err := cl.Compressed(ctx, name); err == nil {
		t.Fatal("data export over a lost shard succeeded")
	}

	// The coordinator API surfaces the same condition as a typed error.
	if _, err := coAgg(ctx, co, name, engine.GE(100)); !cluster.IsPartialUnavailable(err) {
		t.Fatalf("coordinator agg error is not PartialUnavailableError: %v", err)
	}
}

// TestReplicatedFailover: with R=2, losing one backend must be
// transparent — every query keeps answering bit-identically off the
// surviving replicas.
func TestReplicatedFailover(t *testing.T) {
	ctx := context.Background()
	bs := newBackends(t, 3)
	_, cl := newCluster(t, bs.urls, 2)
	values := edgeDataset(3*vector.RowGroupSize+500, 32)
	if _, err := cl.Ingest(ctx, "c", values); err != nil {
		t.Fatal(err)
	}
	col := format.EncodeColumn(values)
	single := col.Marshal()
	rel := engine.BuildALPFromColumn("c", col)
	parts, _ := rel.FilterAggPartials(1, engine.GE(100), nil)
	want := engine.MergeAggs(parts)

	for kill := 0; kill < 2; kill++ {
		if kill == 1 {
			bs.servers[0].Close()
		}
		agg, err := cl.Agg(ctx, "c", client.GE(100))
		if err != nil {
			t.Fatalf("kill=%d: agg: %v", kill, err)
		}
		if !bitsEq(agg.Sum, want.Sum) || agg.Count != want.Count ||
			!bitsEq(agg.Min, want.Min) || !bitsEq(agg.Max, want.Max) {
			t.Fatalf("kill=%d: failover agg %+v != single-node %+v", kill, agg, want)
		}
		rows, err := cl.Scan(ctx, "c", client.GE(100))
		if err != nil {
			t.Fatalf("kill=%d: scan: %v", kill, err)
		}
		var wantRows int
		for _, v := range values {
			if engine.GE(100).Match(v) {
				wantRows++
			}
		}
		if len(rows) != wantRows {
			t.Fatalf("kill=%d: scan rows %d != %d", kill, len(rows), wantRows)
		}
		data, err := cl.Compressed(ctx, "c")
		if err != nil {
			t.Fatalf("kill=%d: data: %v", kill, err)
		}
		if string(data) != string(single) {
			t.Fatalf("kill=%d: stitched export diverged from single-node bytes", kill)
		}
	}
}

// hangProxy fronts a real backend and, once armed, holds query
// requests open until the client gives up — the slow-shard half of the
// fault battery.
type hangProxy struct {
	proxy *httputil.ReverseProxy
	armed atomic.Bool
}

func newHangProxy(t *testing.T, backend string) (*hangProxy, *httptest.Server) {
	t.Helper()
	u, err := url.Parse(backend)
	if err != nil {
		t.Fatal(err)
	}
	hp := &hangProxy{proxy: httputil.NewSingleHostReverseProxy(u)}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hp.armed.Load() && (strings.Contains(r.URL.Path, "/agg") ||
			strings.Contains(r.URL.Path, "/count") || strings.Contains(r.URL.Path, "/scan")) {
			<-r.Context().Done()
			return
		}
		hp.proxy.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return hp, ts
}

// TestHungBackendFailsOver: a backend that accepts connections but
// never answers must not stall the cluster past the client timeout —
// replicated reads fail over, unreplicated reads degrade to the typed
// refusal.
func TestHungBackendFailsOver(t *testing.T) {
	ctx := context.Background()
	bs := newBackends(t, 3)
	hp, hung := newHangProxy(t, bs.urls[2])
	urls := []string{bs.urls[0], bs.urls[1], hung.URL}

	shortTimeout := func(o *cluster.Options) {
		o.Pool.ClientOptions = []client.Option{
			client.WithRetries(0),
			client.WithHTTPClient(&http.Client{Timeout: 500 * time.Millisecond}),
		}
	}

	for _, replicas := range []int{1, 2} {
		co, cl := newCluster(t, urls, replicas, shortTimeout)
		values := dataset(3*vector.RowGroupSize+500, 33)
		// The hung proxy must actually serve some row-groups of the
		// test column; its shards land on the real backend behind it.
		name := ingestOn(t, ctx, cl, client.New(bs.urls[2]), fmt.Sprintf("h%d", replicas), values)
		want, err := coAgg(ctx, co, name, engine.GE(100))
		if err != nil {
			t.Fatalf("replicas=%d: baseline agg: %v", replicas, err)
		}

		hp.armed.Store(true)
		agg, err := coAgg(ctx, co, name, engine.GE(100))
		if replicas == 1 {
			if !cluster.IsPartialUnavailable(err) {
				t.Fatalf("replicas=1: hung backend did not yield the typed refusal: %v", err)
			}
		} else {
			if err != nil {
				t.Fatalf("replicas=2: failover past hung backend failed: %v", err)
			}
			if !bitsEq(agg.Sum, want.Sum) || agg.Count != want.Count {
				t.Fatalf("replicas=2: failover agg %+v != baseline %+v", agg, want)
			}
		}
		hp.armed.Store(false)
		_ = cl
	}
}

// TestRebalanceMovesRowGroups drains one backend's row-groups onto
// another via the raw-export/ingest path and checks: the epoch bumps,
// answers stay bit-identical, and the drained backend is no longer
// needed at all.
func TestRebalanceMovesRowGroups(t *testing.T) {
	ctx := context.Background()
	bs := newBackends(t, 3)
	co, cl := newCluster(t, bs.urls, 1)
	values := edgeDataset(3*vector.RowGroupSize+500, 34)
	name := ingestOn(t, ctx, cl, client.New(bs.urls[0]), "r", values)
	single := format.EncodeColumn(values).Marshal()
	want, err := cl.Agg(ctx, name, client.GE(100))
	if err != nil {
		t.Fatal(err)
	}
	epoch0 := co.Map().Epoch

	// Drain backend 0 completely: move its every row-group to backend 1.
	info, err := cl.Info(ctx, name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.Rebalance(ctx, name, bs.urls[0], bs.urls[1], 0, info.NumRowGroups-1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch <= epoch0 || co.Map().Epoch != res.Epoch {
		t.Fatalf("rebalance did not bump the epoch: %d -> %d", epoch0, res.Epoch)
	}

	agg, err := cl.Agg(ctx, name, client.GE(100))
	if err != nil {
		t.Fatalf("agg after rebalance: %v", err)
	}
	if !bitsEq(agg.Sum, want.Sum) || agg.Count != want.Count ||
		!bitsEq(agg.Min, want.Min) || !bitsEq(agg.Max, want.Max) {
		t.Fatalf("agg changed across rebalance: %+v != %+v", agg, want)
	}
	data, err := cl.Compressed(ctx, name)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(single) {
		t.Fatal("export changed across rebalance")
	}

	// The drained backend holds nothing for this column anymore: kill
	// it and every query must still answer.
	bs.servers[0].Close()
	agg, err = cl.Agg(ctx, name, client.GE(100))
	if err != nil {
		t.Fatalf("agg after draining and killing backend 0: %v", err)
	}
	if !bitsEq(agg.Sum, want.Sum) || agg.Count != want.Count {
		t.Fatalf("agg after drain+kill diverged: %+v != %+v", agg, want)
	}
	if _, err := cl.Scan(ctx, name, client.GE(100)); err != nil {
		t.Fatalf("scan after drain+kill: %v", err)
	}

	// The old generation was retired from the moved-to backend's peer:
	// backend 1 must hold exactly one stored shard for "c".
	bcl := client.New(bs.urls[1])
	names, err := bcl.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	shardCount := 0
	for _, n := range names {
		if strings.HasPrefix(n, name+"@g") {
			shardCount++
		}
	}
	if shardCount != 1 {
		t.Fatalf("backend 1 holds %d generations of %s (%v), want exactly 1", shardCount, name, names)
	}
}

// TestClusterMetricsSurface sanity-checks the coordinator metrics
// endpoint: scatter counters and per-backend latency histograms show
// up after clustered traffic.
func TestClusterMetricsSurface(t *testing.T) {
	alp.EnableStats()
	ctx := context.Background()
	bs := newBackends(t, 2)
	_, cl := newCluster(t, bs.urls, 1)
	if _, err := cl.Ingest(ctx, "c", dataset(2*vector.RowGroupSize+100, 41)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Agg(ctx, "c", client.GE(100)); err != nil {
		t.Fatal(err)
	}
	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m["cluster_scatters"] < 1 {
		t.Fatalf("cluster_scatters = %d after a clustered agg", m["cluster_scatters"])
	}
	if m["cluster_backend_calls"] < 1 {
		t.Fatalf("cluster_backend_calls = %d after a clustered agg", m["cluster_backend_calls"])
	}
	if _, ok := m["backend0_lat_count"]; !ok {
		t.Fatal("per-backend latency histogram missing from /metrics")
	}
	if _, ok := m["lat_cluster_scatter_count"]; !ok {
		t.Fatal("cluster scatter histogram missing from /metrics")
	}
}

// TestRebalanceErrorStatuses: an error in the rebalance request itself
// is a 400, but a backend failing the move is a 5xx, which a client may
// retry.
func TestRebalanceErrorStatuses(t *testing.T) {
	ctx := context.Background()
	bs := newBackends(t, 3)
	co, cl := newCluster(t, bs.urls, 1)
	ts := httptest.NewServer(cluster.NewServer(co, server.Options{}).Handler())
	defer ts.Close()
	name := ingestOn(t, ctx, cl, client.New(bs.urls[0]), "e", dataset(3*vector.RowGroupSize, 35))

	rebalance := func(from, to string) int {
		t.Helper()
		body := fmt.Sprintf(`{"column":%q,"from":%q,"to":%q,"rg_lo":0,"rg_hi":2}`, name, from, to)
		resp, err := http.Post(ts.URL+"/v1/cluster/rebalance", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := rebalance(bs.urls[0], bs.urls[0]); got != http.StatusBadRequest {
		t.Errorf("same-backend rebalance: status %d, want 400", got)
	}
	if got := rebalance(bs.urls[0], "http://no-such-backend"); got != http.StatusBadRequest {
		t.Errorf("unknown-backend rebalance: status %d, want 400", got)
	}
	bs.servers[1].Close()
	if got := rebalance(bs.urls[0], bs.urls[1]); got < 500 {
		t.Errorf("rebalance onto a dead backend: status %d, want 5xx", got)
	}
}
