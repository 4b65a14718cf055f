package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"github.com/goalp/alp/client"
)

// rig is one set of running server processes and the client the
// benchmark drives them through.
type rig struct {
	procs []*proc
	// entry is the process the clients talk to: the only alpserved, or
	// the coordinator.
	entry     *proc
	cl        *client.Client
	transport *http.Transport
	// accessLogs maps each alpserved's name to its access-log path
	// (traced runs only).
	accessLogs map[string]string
}

// rigEnv says where the binaries are, where logs go, and whether the
// servers write access logs and the client records exchanges.
type rigEnv struct {
	bin    string
	dir    string
	traced bool
	// seq numbers the rigs of one run so their log files stay apart.
	seq int
}

// bootRig starts backends alpserved processes and, when coordinated, an
// alpclusterd in front of them, all with default flags on 127.0.0.1:0.
// It returns once every process answers /readyz.
func bootRig(ctx context.Context, env *rigEnv, backends int, coordinated bool) (*rig, error) {
	env.seq++
	r := &rig{accessLogs: map[string]string{}}
	for i := 0; i < backends; i++ {
		name := fmt.Sprintf("alpserved%d", i)
		args := []string{"-addr", "127.0.0.1:0"}
		if env.traced {
			path := filepath.Join(env.dir, fmt.Sprintf("rig%d-%s.access.jsonl", env.seq, name))
			args = append(args, "-access-log", path)
			r.accessLogs[name] = path
		}
		p, err := startProc(ctx, name, filepath.Join(env.bin, "alpserved"),
			filepath.Join(env.dir, fmt.Sprintf("rig%d-%s.log", env.seq, name)), args...)
		if err != nil {
			r.stop()
			return nil, err
		}
		r.procs = append(r.procs, p)
	}
	r.entry = r.procs[0]
	if coordinated {
		urls := make([]string, len(r.procs))
		for i, p := range r.procs {
			urls[i] = p.url
		}
		p, err := startProc(ctx, "alpclusterd", filepath.Join(env.bin, "alpclusterd"),
			filepath.Join(env.dir, fmt.Sprintf("rig%d-alpclusterd.log", env.seq)),
			"-addr", "127.0.0.1:0", "-backends", strings.Join(urls, ","))
		if err != nil {
			r.stop()
			return nil, err
		}
		r.procs = append(r.procs, p)
		r.entry = p
	}
	r.transport = &http.Transport{MaxIdleConnsPerHost: 8, IdleConnTimeout: time.Minute}
	var rt http.RoundTripper = r.transport
	if env.traced {
		rt = &recorder{base: r.transport}
	}
	r.cl = client.New(r.entry.url, client.WithRetries(0), client.WithHTTPClient(&http.Client{Transport: rt}))
	return r, nil
}

// stop stops every process, coordinator first, and waits for each.
func (r *rig) stop() {
	for i := len(r.procs) - 1; i >= 0; i-- {
		r.procs[i].stop()
	}
	r.procs = nil
	if r.transport != nil {
		r.transport.CloseIdleConnections()
	}
}

func (r *rig) pids() []int {
	out := make([]int, len(r.procs))
	for i, p := range r.procs {
		out[i] = p.pid()
	}
	return out
}

// serverCPU is the CPU time of every process of the rig.
func (r *rig) serverCPU() (time.Duration, error) { return totalCPU(r.pids()) }

// counters scrapes /metrics from every process of the rig and sums the
// named counters over them.
func (r *rig) counters(ctx context.Context, names []string) (map[string]int64, error) {
	sum := make(map[string]int64, len(names))
	for _, p := range r.procs {
		m, err := client.New(p.url, client.WithRetries(0),
			client.WithHTTPClient(&http.Client{Transport: r.transport})).Metrics(ctx)
		if err != nil {
			return nil, fmt.Errorf("%s /metrics: %w", p.name, err)
		}
		for _, k := range names {
			sum[k] += m[k]
		}
	}
	return sum, nil
}
