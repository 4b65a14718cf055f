// Clustered scans: the coordinator re-frames backend scan streams into
// one ALPS stream in global row-group order. Every ALPS frame is
// self-contained once the 5-byte stream header is stripped, so the
// gather is pure byte plumbing: fetch each run of consecutive
// same-backend row-groups, drop the runs' headers, write one header
// and the frames in order, and sum the completion trailers into one
// trailer. Values and their order are therefore bit-identical to a
// single-node scan of the same column.
package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/goalp/alp/client"
	"github.com/goalp/alp/internal/engine"
	"github.com/goalp/alp/internal/format"
	"github.com/goalp/alp/internal/obs"
)

// scanRun is one backend fetch of the scan plan: a maximal stretch of
// consecutive global row-groups whose chosen replica is the same
// backend. Consecutive globals on one backend have consecutive local
// indexes (assigned lists are ascending), so a run maps to a single
// ?rg_lo/?rg_hi range request.
type scanRun struct {
	b       int
	globals []int // consecutive
}

// planRuns chooses a replica for each row-group in need and coalesces
// consecutive same-backend choices into runs. It returns the
// row-groups that have no candidate left.
func (c *Coordinator) planRuns(st *colState, need []int, excluded []bool) (runs []scanRun, missing []int) {
	for _, g := range need {
		b, ok := c.choose(st, g, excluded)
		if !ok {
			missing = append(missing, g)
			continue
		}
		if n := len(runs); n > 0 && runs[n-1].b == b && runs[n-1].globals[len(runs[n-1].globals)-1] == g-1 {
			runs[n-1].globals = append(runs[n-1].globals, g)
			continue
		}
		runs = append(runs, scanRun{b: b, globals: []int{g}})
	}
	return runs, missing
}

// fetchRun fetches one run's scan payload, failing over to sub-runs on
// lower-ranked replicas when the chosen backend errors. excluded is
// shared across the whole scan under mu, so one backend's failure is
// observed by every run that would have routed to it.
func (c *Coordinator) fetchRun(ctx context.Context, st *colState, p client.Predicate, run scanRun, excluded []bool, mu *sync.Mutex) ([]byte, int, error) {
	o := obs.Active()
	lo := st.localIndex(run.b, run.globals[0])
	hi := lo + len(run.globals) - 1
	start := time.Now()
	var payload []byte
	var rows int
	err := c.pool.Do(ctx, run.b, func(cl *client.Client) error {
		var err error
		payload, rows, err = cl.ScanRange(ctx, st.storedName(run.b), p, lo, hi)
		return err
	})
	dur := time.Since(start)
	o.Add(obs.ClusterCalls, 1)
	o.Observe(obs.HistClusterBackend, dur.Nanoseconds())
	c.backendHists[run.b].Record(dur.Nanoseconds())
	if err == nil {
		if payload, err = stripScanHeader(payload); err != nil {
			return nil, 0, fmt.Errorf("backend %s: %w", c.pool.URL(run.b), err)
		}
		return payload, rows, nil
	}

	// Fail the backend over and re-plan this run's row-groups onto
	// whatever replicas remain.
	cause := fmt.Errorf("backend %s: %w", c.pool.URL(run.b), err)
	mu.Lock()
	excluded[run.b] = true
	exCopy := append([]bool(nil), excluded...)
	mu.Unlock()
	o.Add(obs.ClusterFailovers, 1)
	subRuns, missing := c.planRuns(st, run.globals, exCopy)
	if len(missing) > 0 {
		o.Add(obs.ClusterPartial, 1)
		return nil, 0, &PartialUnavailableError{Col: st.name, MissingRowGroups: missing, Cause: cause}
	}
	var out []byte
	total := 0
	for _, sub := range subRuns {
		part, n, err := c.fetchRun(ctx, st, p, sub, excluded, mu)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, part...)
		total += n
	}
	return out, total, nil
}

// scanHeader is the 5-byte ALPS stream header every backend response
// and the coordinator's own stream start with.
var scanHeader = format.AppendScanStreamHeader(nil)

func stripScanHeader(payload []byte) ([]byte, error) {
	if len(payload) < len(scanHeader) || !bytes.Equal(payload[:len(scanHeader)], scanHeader) {
		return nil, fmt.Errorf("scan stream missing ALPS header")
	}
	return payload[len(scanHeader):], nil
}

// Scan streams the clustered scan of row-groups [rgLo, rgHi] under p
// into w, in global row-group order, as one ALPS stream: one header,
// then the backends' frames spliced in order. Runs are fetched with
// bounded concurrency but emitted strictly in order, and nothing — the
// header included — is written before the first run has answered, so a
// scan that fails there is still a clean error status. Waiting on runs
// is timed as the engine span and writing as the write span, like a
// local scan.
func (h *column) Scan(ctx context.Context, p engine.Predicate, rgLo, rgHi int, w io.Writer) (int, error) {
	c, st := h.c, h.st
	o := obs.Active()
	tr := obs.TraceFrom(ctx)
	start := time.Now()
	excluded := make([]bool, c.pool.Len())
	var exMu sync.Mutex

	runs, missing := c.planRuns(st, rgSpan(rgLo, rgHi), excluded)
	if len(missing) > 0 {
		o.Add(obs.ClusterPartial, 1)
		return 0, &PartialUnavailableError{Col: st.name, MissingRowGroups: missing}
	}
	fanout := map[int]bool{}
	for _, r := range runs {
		fanout[r.b] = true
	}
	o.ClusterScatter(len(fanout))

	type result struct {
		payload []byte
		rows    int
		err     error
	}
	cp := client.Between(p.Lo, p.Hi)
	results := make([]result, len(runs))
	done := make([]chan struct{}, len(runs))
	for i := range done {
		done[i] = make(chan struct{})
	}
	sem := make(chan struct{}, c.opts.ScanConcurrency)
	for i := range runs {
		go func(i int) {
			sem <- struct{}{}
			defer func() { <-sem }()
			defer close(done[i])
			payload, n, err := c.fetchRun(ctx, st, cp, runs[i], excluded, &exMu)
			results[i] = result{payload: payload, rows: n, err: err}
		}(i)
	}

	header := scanHeader // written with the first payload
	rows := 0
	for i := range runs {
		t0 := time.Now()
		select {
		case <-done[i]:
		case <-ctx.Done():
			return rows, ctx.Err()
		}
		tr.AddSince(obs.SpanEngine, t0)
		r := results[i]
		if r.err != nil {
			return rows, r.err
		}
		t0 = time.Now()
		if len(header) > 0 {
			if _, err := w.Write(header); err != nil {
				return rows, err
			}
			header = nil
		}
		if _, err := w.Write(r.payload); err != nil {
			return rows, err
		}
		tr.AddSince(obs.SpanWrite, t0)
		rows += r.rows
	}
	// Zero row-groups still produce a valid (empty) stream.
	if len(header) > 0 {
		if _, err := w.Write(header); err != nil {
			return rows, err
		}
	}
	o.Observe(obs.HistClusterScatter, time.Since(start).Nanoseconds())
	return rows, nil
}
