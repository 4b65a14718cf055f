// Command alpserved serves ALP-compressed columns over HTTP: streaming
// ingest into the parallel Writer, server-side predicate pushdown
// (agg/count/scan), raw encoded-vector shipping for thin clients, and
// the codec-wide metrics endpoint. With -metrics-history the server
// also records its own telemetry into an ALP-compressed time-series
// store (internal/metricstore) queryable at /v1/metrics/history, and
// writes an ALPM snapshot on shutdown when -metrics-snapshot is set.
// See internal/server for the API and the client package for the typed
// Go client.
//
// Usage:
//
//	alpserved -addr :8080
//	alpserved -addr 127.0.0.1:0 -max-concurrent 32 -timeout 10s
//
// The listen address is printed as "alpserved: listening on ADDR" once
// the socket is bound (with -addr :0 this is how callers learn the
// port). SIGINT/SIGTERM trigger a graceful drain: in-flight requests
// complete, new ones are refused with 503, then the listener closes.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"github.com/goalp/alp"
	"github.com/goalp/alp/internal/metricstore"
	"github.com/goalp/alp/internal/server"
)

// openLog resolves a log-destination flag: empty disables, "-" means
// stderr, anything else appends to that file. The server serializes
// writes, so O_APPEND is enough for a well-formed line stream.
func openLog(path string) io.Writer {
	switch path {
	case "":
		return nil
	case "-":
		return os.Stderr
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		fmt.Fprintln(os.Stderr, "alpserved:", err)
		os.Exit(1)
	}
	return f
}

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")
		maxConc = flag.Int("max-concurrent", 0, "max in-flight requests before shedding with 429 (0 = 4x GOMAXPROCS)")
		timeout = flag.Duration("timeout", 30*time.Second, "per-request deadline")
		maxBody = flag.Int64("max-body", 1<<30, "ingest body cap in bytes")
		workers = flag.Int("ingest-workers", 0, "row-group encode workers per ingest (0 = one per CPU)")
		retryIn = flag.Duration("retry-after", time.Second, "Retry-After hint returned with shed load")
		drainT  = flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight requests on shutdown")
		debug   = flag.Bool("debug", false, "also serve /debug/vars and /debug/pprof")
		accLog  = flag.String("access-log", "", "write a structured JSON access-log line per request to this file (\"-\" = stderr)")
		slowLog = flag.String("slow-log", "", "write slow-query lines to this file (\"-\" = stderr)")
		slowAt  = flag.Duration("slow-threshold", 250*time.Millisecond, "requests at least this slow go to the slow-query log")

		monOn       = flag.Bool("metrics-history", false, "record the server's own telemetry into an ALP-compressed history store (GET /v1/metrics/history)")
		monInterval = flag.Duration("metrics-interval", 10*time.Second, "scrape period of the metrics-history recorder")
		monRetain   = flag.Int64("metrics-retention", 4<<20, "compressed budget for sealed history windows in bytes; oldest windows are evicted past it")
		monWindow   = flag.Int("metrics-window", 512, "scrapes per sealed history window")
		monBuckets  = flag.Bool("metrics-buckets", false, "also record per-bucket histogram series (~6x more series)")
		monSnap     = flag.String("metrics-snapshot", "", "write an ALPM snapshot of the history store to this file on shutdown (read with: alpfile metrics)")
	)
	flag.Parse()

	alp.EnableStats()
	var mon *metricstore.Store
	if *monOn {
		mon = metricstore.New(metricstore.Options{
			Interval:         *monInterval,
			WindowSamples:    *monWindow,
			RetentionBytes:   *monRetain,
			HistogramBuckets: *monBuckets,
		})
		mon.ScrapeOnce() // a first sample before any traffic: history is never empty
		mon.Start()
	}
	srv := server.New(server.Options{
		MaxConcurrent:      *maxConc,
		RequestTimeout:     *timeout,
		MaxBodyBytes:       *maxBody,
		RetryAfter:         *retryIn,
		IngestWorkers:      *workers,
		AccessLog:          openLog(*accLog),
		SlowQueryLog:       openLog(*slowLog),
		SlowQueryThreshold: *slowAt,
		MetricsHistory:     mon,
	})

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	if *debug {
		expvar.Publish("alp", expvar.Func(func() any { return alp.ReadStats() }))
		mux.Handle("/debug/vars", expvar.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "alpserved:", err)
		os.Exit(1)
	}
	fmt.Printf("alpserved: listening on %s\n", ln.Addr())

	httpSrv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "alpserved:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "alpserved: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainT)
	defer cancel()
	// Drain the handler gate first (in-flight requests complete, new
	// ones get 503), then close the listener and idle connections.
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "alpserved: drain:", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "alpserved: shutdown:", err)
	}
	if mon != nil {
		mon.Stop()
		mon.ScrapeOnce() // final sample so the snapshot covers the full run
		if *monSnap != "" {
			if err := writeSnapshot(mon, *monSnap); err != nil {
				fmt.Fprintln(os.Stderr, "alpserved: metrics snapshot:", err)
			} else {
				fmt.Fprintf(os.Stderr, "alpserved: metrics snapshot written to %s\n", *monSnap)
			}
		}
	}
	fmt.Fprintln(os.Stderr, "alpserved: stopped")
}

// writeSnapshot persists the history store in ALPM format, atomically
// (write to a temp file in the same directory, then rename).
func writeSnapshot(mon *metricstore.Store, path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := mon.WriteTo(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
