// Command benchmark is the repository's end-to-end benchmark. It
// builds nothing itself: run.sh builds alpserved, alpclusterd and this
// program, which then starts the servers as child processes on
// 127.0.0.1:0 and drives one workload against them through the client
// package, checking every answer against the in-process result of the
// same build.
//
//	bash benchmark/run.sh --workload agg-wide --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics of BENCHMARK.json; with --trace 1 it carries
// the per-layer metrics, and the spans are written under .bench_build.
// README.md describes the workloads, the metrics and the calibration.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// clients is the number of closed-loop client goroutines, one per CPU
// of the host the benchmark was sized on.
const clients = 2

// runConfig is one benchmark run.
type runConfig struct {
	workload string
	seed     int64
	windows  int
	trace    bool
	bin      string
	out      string
	spec     *benchSpec
	size     sizing
	log      io.Writer // the human-readable report and failure lines
}

func main() {
	workload := flag.String("workload", "", "workload name from BENCHMARK.json")
	seed := flag.Int64("seed", 1, "seed for every random choice of the run")
	seconds := flag.Int("seconds", 0, "measured seconds, one 1-s window each (0 = run_seconds of the spec)")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	bin := flag.String("bin", ".bench_build/bin", "directory holding alpserved and alpclusterd")
	out := flag.String("out", ".bench_build", "directory for logs and trace files")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark spec")
	compare := flag.String("compare", "", "BASE,CAND: compare two files of result lines against the end-to-end bounds")
	flag.Parse()

	spec, err := loadSpec(*specPath)
	if err != nil {
		fatal(err)
	}
	if *compare != "" {
		os.Exit(compareFiles(spec, *compare))
	}
	cfg := runConfig{workload: *workload, seed: *seed, windows: *seconds, trace: *trace == 1,
		bin: *bin, out: *out, spec: spec, size: fullSize, log: os.Stderr}
	if cfg.windows <= 0 {
		cfg.windows = spec.RunSeconds
	}
	// On SIGINT or SIGTERM the run stops early and still stops every
	// server it started.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, cfg)
	stop()
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// run executes one workload and returns its result line.
func run(ctx context.Context, cfg runConfig) (*result, error) {
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.out, "run", fmt.Sprintf("%s-seed%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := w.prepare(cfg.seed, cfg.size); err != nil {
		return nil, err
	}
	r := &runner{cfg: cfg, w: w, env: &rigEnv{bin: cfg.bin, dir: dir}}
	for c := 0; c < clients; c++ {
		r.decks = append(r.decks, &deck{list: w.requests(), rng: rand.New(rand.NewSource(cfg.seed*1000003 + int64(c)))})
	}
	var metrics map[string]float64
	if cfg.trace {
		metrics, err = r.traced(ctx)
	} else {
		metrics, err = r.untraced(ctx)
	}
	if err != nil {
		return nil, err
	}
	list := cfg.spec.EndToEnd
	if cfg.trace {
		list = cfg.spec.PerLayer
	}
	res := &result{Correct: r.wrong == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range list {
		v, ok := metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Fprintf(cfg.log, "%-36s %14.6g %s\n", m.Name, v, m.Unit)
	}
	if res.Attempted == 0 {
		return nil, errors.New("no request was attempted")
	}
	fmt.Fprintf(cfg.log, "%-36s %14.6g ratio (%d of %d requests)\n", "failed_frac",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	return res, nil
}

// runner holds one run's state across its set-ups and measured loops.
type runner struct {
	cfg   runConfig
	w     workload
	env   *rigEnv
	decks []*deck

	attempted, failed, wrong int64
}

// deck deals a workload's request list to one client in a seeded order,
// reshuffled every pass, so over each full pass every client sends the
// list's mix exactly.
type deck struct {
	list  []request
	rng   *rand.Rand
	order []int
	pos   int
}

func (d *deck) next() request {
	if d.pos == len(d.order) {
		d.order, d.pos = d.rng.Perm(len(d.list)), 0
	}
	d.pos++
	return d.list[d.order[d.pos-1]]
}

// maxSetups caps the set-ups of one run; a boot of an empty server
// takes a few milliseconds, and its median needs many samples.
const maxSetups = 31

// setup boots the workload's rig at least cfg.size.setups times and
// until cfg.size.setupBudget has passed, keeping the last rig, and
// returns the median set-up time, host-normalized by a pause timed
// right after the last set-up.
func (r *runner) setup(ctx context.Context) (*rig, float64, error) {
	var times []float64
	began := time.Now()
	for {
		t0 := time.Now()
		rg, err := r.w.boot(ctx, r.env)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		n := len(times)
		if n == maxSetups || n >= r.cfg.size.setups && n%2 == 1 && time.Since(began) >= r.cfg.size.setupBudget {
			return rg, median(times) / hostFactor(refCalMVs, calibrate(r.cfg.size.pause)), nil
		}
		rg.stop()
	}
}

// load runs the measured loop against rg and the end-of-run checks.
func (r *runner) load(ctx context.Context, rg *rig, windows int, traced bool, afterWarmup func() error, atPause func(int)) (*loopResult, error) {
	op := func(ctx context.Context, c int, out *call) {
		req := r.decks[c].next()
		if traced {
			ctx = withCall(ctx, out)
		}
		r.w.do(ctx, rg.cl, c, req, out)
	}
	sz := r.cfg.size
	res, err := runLoop(ctx, loopConfig{clients: clients, warmup: sz.warmup, windows: windows,
		window: sz.window, pause: sz.pause, trace: traced, log: r.cfg.log,
		afterWarmup: afterWarmup, atPause: atPause, cpu: rg.serverCPU}, op)
	if err != nil {
		return nil, err
	}
	r.attempted += res.attempted
	r.failed += res.failed
	r.wrong += res.wrong
	if err := r.w.finish(ctx, rg.cl); err != nil {
		fmt.Fprintln(r.cfg.log, "benchmark: end-of-run check:", err)
		r.failed++
		r.wrong++
	}
	return res, nil
}

// untraced measures the end-to-end metrics.
func (r *runner) untraced(ctx context.Context) (map[string]float64, error) {
	rg, setupS, err := r.setup(ctx)
	if err != nil {
		return nil, err
	}
	defer rg.stop()
	// The peak resident set is reset once the warm-up has settled the
	// servers' heaps, so it shows the memory the measured load uses.
	resetRSS := func() error {
		for _, pid := range rg.pids() {
			if err := resetPeakRSS(pid); err != nil {
				return fmt.Errorf("resetting peak RSS: %w", err)
			}
		}
		return nil
	}
	res, err := r.load(ctx, rg, r.cfg.windows, false, resetRSS, nil)
	if err != nil {
		return nil, err
	}
	var rss int64
	for _, pid := range rg.pids() {
		b, err := peakRSS(pid)
		if err != nil {
			return nil, err
		}
		rss += b
	}
	m := summarize(res, refCalMVs)
	if !m.p99Valid {
		fmt.Fprintf(r.cfg.log, "benchmark: latency_p99_ms is INVALID: %d samples, need %d\n", m.samples, minP99Samples)
	}
	fmt.Fprintf(r.cfg.log, "%-36s %14d samples\n", "latency samples", m.samples)
	fmt.Fprintf(r.cfg.log, "%-36s %14.6g MV/s (reference %g, median of %d pauses)\n",
		"calibration", median(res.cals), refCalMVs, len(res.cals))
	var perWindow []string
	for k, w := range res.windows {
		perWindow = append(perWindow, fmt.Sprintf("%.0f@%.0f", float64(w.values)/w.dur.Seconds()/1e6, res.cals[k]))
	}
	fmt.Fprintf(r.cfg.log, "%-36s %s\n", "windows (MV/s@calibration)", strings.Join(perWindow, " "))
	raw := summarize(res, 0)
	fmt.Fprintf(r.cfg.log, "%-36s throughput %.6g MV/s, p50 %.6g ms, p99 %.6g ms, cpu %.6g ms/op\n",
		"not host-normalized", raw.throughputMVs, raw.p50, raw.p99, raw.cpuMsPerOp)
	return map[string]float64{
		"setup_s":              setupS,
		"throughput_mvs":       m.throughputMVs,
		"latency_p50_ms":       m.p50,
		"latency_p99_ms":       m.p99,
		"bits_per_value":       r.w.bitsPerValue(),
		"server_cpu_ms_per_op": m.cpuMsPerOp,
		"server_rss_mb":        float64(rss) / (1 << 20),
	}, nil
}

// scrapedCounters are the /metrics counters diffed at window
// boundaries in a traced run.
var scrapedCounters = []string{"vectors_skipped", "pushdown_vectors", "pushdown_fallbacks",
	"server_requests", "server_sheds", "server_bytes_out",
	"cluster_backend_calls", "cluster_failovers", "cluster_stragglers"}

// traced measures the per-layer metrics: half the windows untraced, the
// other half on a fresh rig with access logs and recorded exchanges,
// then a sequential replay for the coordinator join and the in-process
// rungs.
func (r *runner) traced(ctx context.Context) (map[string]float64, error) {
	out := map[string]float64{}
	half := max(1, r.cfg.windows/2)

	rg, err := r.w.boot(ctx, r.env)
	if err != nil {
		return nil, err
	}
	plain, err := r.load(ctx, rg, half, false, nil, nil)
	rg.stop()
	if err != nil {
		return nil, err
	}

	r.env.traced = true
	if rg, err = r.w.boot(ctx, r.env); err != nil {
		return nil, err
	}
	defer rg.stop()
	var snaps []map[string]int64
	var scrapeErr error
	atPause := func(int) {
		sum, err := rg.counters(ctx, scrapedCounters)
		if err != nil {
			scrapeErr = err
			return
		}
		snaps = append(snaps, sum)
	}
	res, err := r.load(ctx, rg, max(1, r.cfg.windows-half), true, nil, atPause)
	if err != nil {
		return nil, err
	}
	if scrapeErr != nil {
		return nil, scrapeErr
	}
	out["trace.overhead_ms"] = summarize(res, refCalMVs).p50 - summarize(plain, refCalMVs).p50

	var windows []map[string]int64
	for k := 1; k < len(snaps); k++ {
		d := map[string]int64{}
		for _, name := range scrapedCounters {
			d[name] = snaps[k][name] - snaps[k-1][name]
		}
		windows = append(windows, d)
	}
	total := map[string]int64{}
	for _, name := range scrapedCounters {
		total[name] = snaps[len(snaps)-1][name] - snaps[0][name]
	}
	out["format.pushdown_ratio"] = share(total["pushdown_vectors"], total["pushdown_vectors"]+total["pushdown_fallbacks"])
	out["server.shed_frac"] = share(total["server_sheds"], total["server_requests"]+total["server_sheds"])

	// The sample the replay and the rungs share.
	srng := rand.New(rand.NewSource(r.cfg.seed ^ 0x5eed))
	list := r.w.requests()
	sample := make([]request, r.cfg.size.replay)
	for i := range sample {
		sample[i] = list[srng.Intn(len(list))]
	}

	log := &spanLog{}
	lines, err := readAccessLogs(rg)
	if err != nil {
		return nil, err
	}
	var calls []*call
	for _, w := range res.windows {
		calls = append(calls, w.calls...)
	}
	var attributed []callLayers
	if len(rg.procs) == 1 {
		byEx := joinByID(calls, lines)
		servers := map[*exchange][]*accessLine{}
		for e, l := range byEx {
			servers[e] = []*accessLine{l}
		}
		for _, cl := range calls {
			if cl.err != nil {
				continue
			}
			if c, ok := layersByID(cl, byEx); ok {
				attributed = append(attributed, c)
			}
			recordCall(log, cl, servers)
		}
	} else {
		// The coordinator forwards no request ID and writes no access
		// log: under load only the client side is recorded, and the
		// backends' lines are joined in a sequential replay.
		for _, cl := range calls {
			recordCall(log, cl, nil)
		}
		attributed, err = r.replay(ctx, rg, sample, log)
		if err != nil {
			return nil, err
		}
	}
	if len(attributed) == 0 {
		return nil, errors.New("no traced call could be joined to a server line")
	}
	band := middleBand(attributed)
	layerMetrics(band, out)
	lats := make([]float64, len(attributed))
	for i, c := range attributed {
		lats[i] = c.latency / float64(time.Millisecond)
	}
	out["trace.latency_p50_ms"] = percentile(lats, 0.5)
	fmt.Fprintf(r.cfg.log, "benchmark: %d calls attributed, median latency %.4g ms; self times of the middle band sum to %.4g ms\n",
		len(attributed), out["trace.latency_p50_ms"], out["trace.self_sum_ms"])

	rs, err := r.w.rungInputs(ctx, rg.cl, sample, srng)
	if err != nil {
		return nil, err
	}
	for k, v := range runRungs(rs, r.cfg.size.rungBudget, log) {
		out[k] = v
	}
	if err := r.writeTrace(log, windows, out); err != nil {
		return nil, err
	}
	return out, nil
}

// replay sends the sample one request at a time through the
// coordinator and joins the backends' access-log lines to each call by
// overlap.
func (r *runner) replay(ctx context.Context, rg *rig, sample []request, log *spanLog) ([]callLayers, error) {
	before, err := readAccessLogs(rg)
	if err != nil {
		return nil, err
	}
	var calls []*call
	for _, req := range sample {
		cl := &call{}
		r.w.do(withCall(ctx, cl), rg.cl, 0, req, cl)
		r.attempted++
		if cl.err != nil {
			r.failed++
			if errors.Is(cl.err, errMismatch) {
				r.wrong++
			}
			fmt.Fprintf(r.cfg.log, "benchmark: replayed %s failed: %v\n", cl.kind, cl.err)
			continue
		}
		calls = append(calls, cl)
	}
	after, err := readAccessLogs(rg)
	if err != nil {
		return nil, err
	}
	// Only lines written during the replay can belong to it.
	seen := map[string]bool{}
	for _, l := range before {
		seen[l.ID] = true
	}
	var fresh []accessLine
	for _, l := range after {
		if !seen[l.ID] {
			fresh = append(fresh, l)
		}
	}
	joined := joinByOverlap(calls, fresh)
	var out []callLayers
	for k, cl := range calls {
		if c, ok := layersByOverlap(cl, joined[k]); ok {
			out = append(out, c)
		}
		servers := map[*exchange][]*accessLine{}
		if len(cl.exchanges) > 0 {
			servers[&cl.exchanges[0]] = joined[k]
		}
		recordCall(log, cl, servers)
	}
	return out, nil
}

// readAccessLogs reads every access log of the rig.
func readAccessLogs(rg *rig) ([]accessLine, error) {
	var all []accessLine
	for name, path := range rg.accessLogs {
		lines, err := readAccessLog(path, name)
		if err != nil {
			return nil, err
		}
		all = append(all, lines...)
	}
	return all, nil
}

// writeTrace writes the spans, the per-window counter diffs and the
// per-layer metrics to <out>/trace/<workload>-seed<seed>.json.
func (r *runner) writeTrace(log *spanLog, windows []map[string]int64, metrics map[string]float64) error {
	dir := filepath.Join(r.cfg.out, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", r.cfg.workload, r.cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(map[string]any{
		"workload": r.cfg.workload,
		"seed":     r.cfg.seed,
		"spans":    log.spans,
		"windows":  windows,
		"metrics":  metrics,
	})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Fprintln(r.cfg.log, "benchmark: spans written to", path)
	}
	return err
}

// compareFiles reads two files of result lines (one workload's runs
// each, old then new) and reports every end-to-end metric against its
// bound. It returns the exit status: 1 when a metric regressed.
func compareFiles(spec *benchSpec, arg string) int {
	paths := strings.Split(arg, ",")
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -compare wants BASE,CAND")
		return 2
	}
	var sets [2][]result
	for i, p := range paths {
		rs, err := readResults(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		sets[i] = rs
	}
	status := 0
	for _, v := range compareSets(spec.EndToEnd, sets[0], sets[1]) {
		mark := "ok"
		switch {
		case v.Worse:
			mark, status = "REGRESSION", 1
		case v.SpreadTooBig:
			mark = "unresolved (spread above bound)"
		}
		fmt.Printf("%-22s base %12.6g (spread %5.1f%%)  cand %12.6g (spread %5.1f%%)  change %+6.1f%%  bound %4.1f%%  %s\n",
			v.Metric, v.Base, 100*v.BaseSpread, v.Cand, 100*v.CandSpread, 100*v.Change, 100*v.Bound, mark)
	}
	return status
}

// readResults reads the JSON result lines of a file, skipping any other
// line, so raw benchmark output can be concatenated into it.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var r result
		if json.Unmarshal(sc.Bytes(), &r) == nil && r.Metrics != nil {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}
