// Command alpbench regenerates the tables and figures of the ALP
// paper's evaluation section on the synthesized datasets. Each
// experiment is selected with -exp; see DESIGN.md for the experiment
// index and EXPERIMENTS.md for recorded paper-vs-measured results.
//
// Usage:
//
//	alpbench -exp table4                 # compression ratios (Table 4)
//	alpbench -exp fig1 -ghz 3.0          # ratio/speed scatter at 3 GHz
//	alpbench -exp table6 -scale 4000000  # end-to-end engine experiment
//	alpbench -exp all                    # everything
//
// Observability: -metrics ADDR enables the codec-wide stats collector
// and serves, for the lifetime of the run, an HTTP endpoint with
// /metrics (the full metrics snapshot as JSON: counters plus the
// lat_*/stage_* latency-histogram quantiles), /debug/vars (expvar,
// including the published "alp" variable) and /debug/pprof (CPU, heap,
// mutex and block profiles). -stats prints the final snapshot to
// stderr after the experiments finish.
package main

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"time"

	"github.com/goalp/alp"
	"github.com/goalp/alp/internal/bench"
	"github.com/goalp/alp/internal/dataset"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: all, fig1, table2, fig3, table4, table5, fig4, fig5, sampling, table6, fig6, table7, alprd, filter, parallel")
		n       = flag.Int("n", dataset.DefaultN, "values per dataset")
		ghz     = flag.Float64("ghz", bench.DefaultGHz, "CPU clock in GHz for tuples-per-cycle conversion")
		minDur  = flag.Duration("mindur", 20*time.Millisecond, "minimum measurement window per timing point")
		scale   = flag.Int("scale", 2_000_000, "values for the end-to-end experiments (paper: 1e9)")
		threads = flag.String("threads", "1,8,16", "thread counts for the end-to-end experiments")
		encWork = flag.String("encworkers", "1,2,4,8", "worker counts for the parallel pipeline experiment")
		metrics = flag.String("metrics", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :6060) and enable stats collection")
		stats   = flag.Bool("stats", false, "enable stats collection and print the final snapshot to stderr")
	)
	flag.Parse()

	if *metrics != "" || *stats {
		alp.EnableStats()
	}
	if *metrics != "" {
		expvar.Publish("alp", expvar.Func(func() any { return json.RawMessage(alp.MetricsJSON()) }))
		http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, alp.MetricsJSON())
		})
		go func() {
			if err := http.ListenAndServe(*metrics, nil); err != nil {
				fmt.Fprintln(os.Stderr, "alpbench: metrics server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "alpbench: serving /metrics, /debug/vars, /debug/pprof on %s\n", *metrics)
	}

	opt := bench.Options{N: *n, GHz: *ghz, MinDur: *minDur}
	var threadList []int
	for _, part := range strings.Split(*threads, ",") {
		var t int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &t); err == nil && t > 0 {
			threadList = append(threadList, t)
		}
	}
	if len(threadList) == 0 {
		threadList = []int{1, 8, 16}
	}
	var workerList []int
	for _, part := range strings.Split(*encWork, ",") {
		var t int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &t); err == nil && t > 0 {
			workerList = append(workerList, t)
		}
	}
	if len(workerList) == 0 {
		workerList = []int{1, 2, 4, 8}
	}

	w := os.Stdout
	run := func(name string, fn func()) {
		if *exp == "all" || *exp == name {
			fn()
			fmt.Fprintln(w)
		}
	}

	known := map[string]bool{"all": true, "fig1": true, "table2": true, "fig3": true,
		"table4": true, "table5": true, "fig4": true, "fig5": true, "sampling": true,
		"table6": true, "fig6": true, "table7": true, "alprd": true, "filter": true,
		"parallel": true}
	if !known[*exp] {
		fmt.Fprintf(os.Stderr, "alpbench: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}

	run("table2", func() { bench.RunTable2(w, opt) })
	run("fig3", func() { bench.RunFig3(w, opt) })
	run("table4", func() { bench.RunTable4(w, opt) })
	run("fig1", func() { bench.RunFig1(w, opt) })
	run("table5", func() { bench.RunTable5(w, opt) })
	run("fig4", func() { bench.RunFig4(w, opt) })
	run("fig5", func() { bench.RunFig5(w, opt) })
	run("sampling", func() { bench.RunSampling(w, opt) })
	run("table6", func() { bench.RunTable6(w, opt, *scale, threadList) })
	run("fig6", func() { bench.RunFig6(w, opt, *scale, threadList[len(threadList)-1]) })
	run("table7", func() { bench.RunTable7(w, opt) })
	run("alprd", func() { bench.RunALPRD(w, opt) })
	run("filter", func() { bench.RunFilter(w, opt, *scale) })
	run("parallel", func() { bench.RunParallel(w, opt, *scale, workerList) })

	if *stats {
		s := alp.ReadStats()
		fmt.Fprintln(os.Stderr, "alpbench: codec stats:", alp.MetricsJSON())
		fmt.Fprintf(os.Stderr, "alpbench: encode %.1f ns/value, decode %.1f ns/value, zone-map skip rate %.1f%%\n",
			s.EncodeNsPerValue(), s.DecodeNsPerValue(), 100*s.SkipRate())
	}
}
