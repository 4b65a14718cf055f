package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

// errMismatch marks a request whose answer differed from the in-process
// reference.
var errMismatch = errors.New("wrong answer")

// call is one timed client call: its interval, the column values it
// covered, and its outcome. Exchanges are filled in by the recording
// RoundTripper when the run is traced.
type call struct {
	kind      string
	start     time.Time
	end       time.Time
	values    int64
	err       error
	exchanges []exchange
}

func (c *call) latency() time.Duration { return c.end.Sub(c.start) }

// opFunc sends client c's next request and checks its answer. It
// fills in the call's interval (the client call alone, not the check),
// covered values and error.
type opFunc func(ctx context.Context, c int, out *call)

// loopConfig shapes a measured run: a closed loop of clients, a
// warm-up, then windows separated by pauses in which the clients are
// idle and the reference kernel is timed.
type loopConfig struct {
	clients int
	warmup  time.Duration
	windows int
	window  time.Duration
	pause   time.Duration
	// trace keeps every call of the measured windows.
	trace bool
	// log, when set, receives a line per failed request.
	log io.Writer
	// atPause, when set, runs at the start of every pause (k = 0 before
	// the first window, k = windows after the last), before the kernel
	// is timed.
	atPause func(k int)
	// afterWarmup, when set, runs once the warm-up has ended, just
	// before the first pause.
	afterWarmup func() error
	// cpu, when set, reads the servers' total CPU time; it is read at
	// the start of the first pause and at the end of the last one, so
	// the pauses count too.
	cpu func() (time.Duration, error)
}

// windowResult is one measured window.
type windowResult struct {
	dur    time.Duration // from the window's start to its last completion
	values int64         // column values covered by successful calls
	lat    []time.Duration
	calls  []*call // kept when tracing
}

// loopResult is a whole measured run.
type loopResult struct {
	windows   []windowResult
	cals      []float64 // cals[k] is timed just before window k; cals[windows] after the last
	attempted int64
	failed    int64
	wrong     int64
	cpu       time.Duration // server CPU over the measured span, pauses included
}

// factor is window k's host factor: the reference rate over the mean
// of the calibrations on either side of it.
func (r *loopResult) factor(ref float64, k int) float64 {
	return hostFactor(ref, r.cals[k], r.cals[k+1])
}

// runLoop drives op from cfg.clients goroutines. Every request sent
// during the warm-up and the windows counts as attempted; failures and
// wrong answers are counted, never retried.
func runLoop(ctx context.Context, cfg loopConfig, op opFunc) (*loopResult, error) {
	res := &loopResult{}
	// burst runs the clients until the deadline and returns the calls
	// that completed, with the time the last of them ended.
	burst := func(until time.Time) ([]*call, time.Time) {
		var wg sync.WaitGroup
		per := make([][]*call, cfg.clients)
		for c := 0; c < cfg.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for time.Now().Before(until) && ctx.Err() == nil {
					cl := &call{}
					op(ctx, c, cl)
					per[c] = append(per[c], cl)
				}
			}(c)
		}
		wg.Wait()
		last := time.Now()
		var all []*call
		for _, cs := range per {
			all = append(all, cs...)
		}
		for _, cl := range all {
			res.attempted++
			if cl.err != nil {
				res.failed++
				if errors.Is(cl.err, errMismatch) {
					res.wrong++
				}
				if cfg.log != nil {
					fmt.Fprintf(cfg.log, "benchmark: %s failed: %v\n", cl.kind, cl.err)
				}
			}
		}
		return all, last
	}
	pause := func(k int) {
		t := time.Now()
		if cfg.atPause != nil {
			cfg.atPause(k)
		}
		rest := cfg.pause - time.Since(t)
		if rest < cfg.pause/2 {
			rest = cfg.pause / 2
		}
		res.cals = append(res.cals, calibrate(rest))
	}

	burst(time.Now().Add(cfg.warmup))
	if cfg.afterWarmup != nil {
		if err := cfg.afterWarmup(); err != nil {
			return nil, err
		}
	}
	var cpu0 time.Duration
	if cfg.cpu != nil {
		var err error
		if cpu0, err = cfg.cpu(); err != nil {
			return nil, err
		}
	}
	for k := 0; k < cfg.windows; k++ {
		pause(k)
		start := time.Now()
		calls, last := burst(start.Add(cfg.window))
		w := windowResult{dur: last.Sub(start)}
		for _, cl := range calls {
			if cl.err != nil {
				continue
			}
			w.values += cl.values
			w.lat = append(w.lat, cl.latency())
		}
		if cfg.trace {
			w.calls = calls
		}
		res.windows = append(res.windows, w)
	}
	pause(cfg.windows)
	if cfg.cpu != nil {
		cpu1, err := cfg.cpu()
		if err != nil {
			return nil, err
		}
		res.cpu = cpu1 - cpu0
	}
	return res, ctx.Err()
}

// loopMetrics are the end-to-end figures a measured run yields.
type loopMetrics struct {
	throughputMVs float64 // host-normalized median over windows
	p50, p99      float64 // ms, each sample scaled by its window's factor
	samples       int
	p99Valid      bool    // at least minP99Samples samples
	cpuMsPerOp    float64 // host-normalized
	completed     int64
}

// summarize host-normalizes a run: rates are multiplied and times
// divided by each window's factor; the CPU figure uses the factor of
// the whole span.
func summarize(r *loopResult, ref float64) loopMetrics {
	var m loopMetrics
	var tputs, lats []float64
	for k, w := range r.windows {
		f := r.factor(ref, k)
		if w.dur > 0 {
			tputs = append(tputs, float64(w.values)/w.dur.Seconds()/1e6*f)
		}
		for _, l := range w.lat {
			lats = append(lats, float64(l)/float64(time.Millisecond)/f)
		}
		m.completed += int64(len(w.lat))
	}
	m.throughputMVs = median(tputs)
	m.p50 = percentile(lats, 0.50)
	m.p99 = percentile(lats, 0.99)
	m.samples = len(lats)
	m.p99Valid = m.samples >= minP99Samples
	if m.completed > 0 {
		f := hostFactor(ref, r.cals...)
		m.cpuMsPerOp = float64(r.cpu) / float64(time.Millisecond) / float64(m.completed) / f
	}
	return m
}
