// Command alpclusterd fronts N alpserved backends with the
// scatter-gather coordinator (internal/cluster), mounted behind the
// same HTTP shell as alpserved (internal/server): it serves the same
// /v1/columns surface — ingest, filtered agg/count/scan pushdown,
// partials, ranged scans and exports — with the same admission
// shedding, drain, request IDs and /metrics.prom, while
// hash-partitioning each column's row-groups across the backends with
// R-way replication.
// Results are bit-identical to a single node at any shard count;
// backends are health-probed and circuit-broken, replicated reads fail
// over, and a query that loses every replica of a row-group degrades
// to a typed 503 ("partial_unavailable"), never a silent partial.
// /v1/cluster/map exposes the partition map and /v1/cluster/rebalance
// moves row-group ranges between backends as compressed bytes.
//
// Usage:
//
//	alpclusterd -addr :8090 -backends http://127.0.0.1:8081,http://127.0.0.1:8082
//	alpclusterd -addr :8090 -backends ... -replicas 2 -probe-interval 2s
//
// The listen address is printed as "alpclusterd: listening on ADDR"
// once the socket is bound. SIGINT/SIGTERM drain the coordinator
// (in-flight requests complete within 10s, new ones get 503), then
// close the listener; the backends own the data and keep running.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/goalp/alp"
	"github.com/goalp/alp/client"
	"github.com/goalp/alp/internal/cluster"
	"github.com/goalp/alp/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", ":8090", "listen address (use :0 for an ephemeral port)")
		backends = flag.String("backends", "", "comma-separated alpserved base URLs (required)")
		replicas = flag.Int("replicas", 1, "replicas per row-group (clamped to the backend count)")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-request deadline")
		maxBody  = flag.Int64("max-body", 1<<30, "ingest body cap in bytes")
		workers  = flag.Int("encode-workers", 0, "row-group encode workers per raw ingest (0 = one per CPU)")
		scanConc = flag.Int("scan-concurrency", 4, "scan runs fetched concurrently (emission stays ordered)")
		probeInt = flag.Duration("probe-interval", 2*time.Second, "backend /readyz probe period (0 disables probing)")
		breakAt  = flag.Int("breaker-threshold", 3, "consecutive failures that open a backend's circuit breaker")
		cooldown = flag.Duration("breaker-cooldown", 500*time.Millisecond, "open-breaker cooldown before a half-open trial")
		retries  = flag.Int("retries", 2, "per-backend client retries on retryable failures")
	)
	flag.Parse()

	// The coordinator's scatter/failover/straggler counters report into
	// the process-wide obs collector, same as alpserved; without this
	// /metrics would serve zeros.
	alp.EnableStats()

	urls := strings.Split(*backends, ",")
	clean := urls[:0]
	for _, u := range urls {
		if u = strings.TrimSpace(u); u != "" {
			clean = append(clean, strings.TrimRight(u, "/"))
		}
	}
	if len(clean) == 0 {
		fmt.Fprintln(os.Stderr, "alpclusterd: -backends requires at least one alpserved URL")
		os.Exit(1)
	}

	co := cluster.New(clean, cluster.Options{
		Replicas:        *replicas,
		ScanConcurrency: *scanConc,
		Pool: client.PoolOptions{
			FailureThreshold: *breakAt,
			Cooldown:         *cooldown,
			ClientOptions:    []client.Option{client.WithRetries(*retries)},
		},
	})
	defer co.Close()
	co.Pool().Probe(context.Background()) // one synchronous probe so the first plan sees real health
	if *probeInt > 0 {
		co.Pool().StartProbes(*probeInt)
	}

	srv := cluster.NewServer(co, server.Options{
		RequestTimeout: *timeout,
		MaxBodyBytes:   *maxBody,
		IngestWorkers:  *workers,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "alpclusterd:", err)
		os.Exit(1)
	}
	fmt.Printf("alpclusterd: listening on %s\n", ln.Addr())
	m := co.Map()
	fmt.Fprintf(os.Stderr, "alpclusterd: %d backend(s), %d replica(s) per row-group, epoch %d\n",
		len(m.Backends), m.Replicas, m.Epoch)

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "alpclusterd:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "alpclusterd: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Drain the shell first (in-flight requests complete, new ones get
	// 503), then close the listener and idle connections.
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "alpclusterd: drain:", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "alpclusterd: shutdown:", err)
	}
	fmt.Fprintln(os.Stderr, "alpclusterd: stopped")
}
