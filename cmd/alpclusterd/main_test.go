package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/goalp/alp/client"
	"github.com/goalp/alp/internal/engine"
)

// proc is one booted binary: its listen address and, once exit is
// closed, its exit error.
type proc struct {
	cmd     *exec.Cmd
	addr    string
	exit    chan struct{}
	exitErr error
}

// boot starts bin on an ephemeral port and waits for the "listening on
// ADDR" line; the process is killed at cleanup if still running.
func boot(t *testing.T, stderr io.Writer, bin string, args ...string) *proc {
	t.Helper()
	p := &proc{cmd: exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...), exit: make(chan struct{})}
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	p.cmd.Stderr = stderr
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", bin, err)
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if i := strings.Index(sc.Text(), "listening on "); i >= 0 {
			p.addr = strings.TrimSpace(sc.Text()[i+len("listening on "):])
			break
		}
	}
	go func() { io.Copy(io.Discard, stdout); p.exitErr = p.cmd.Wait(); close(p.exit) }()
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		<-p.exit
	})
	if p.addr == "" {
		t.Fatalf("%s never reported its address (scan err: %v)", bin, sc.Err())
	}
	return p
}

// TestClusterSmoke is the end-to-end smoke run behind `make
// cluster-smoke`: build the real alpserved and alpclusterd binaries,
// boot two backends and a coordinator over them, drive ingest -> agg
// -> scan through the typed client (agg checked bit-identical to the
// in-process engine), check the coordinator echoes a request ID, then
// SIGTERM the coordinator and verify its graceful drain.
func TestClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("binary build+boot skipped in -short")
	}
	dir := t.TempDir()
	for _, pkg := range []string{".", "../alpserved"} {
		build := exec.Command("go", "build", "-o", dir, pkg)
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			t.Fatalf("building %s: %v", pkg, err)
		}
	}
	b0 := boot(t, os.Stderr, filepath.Join(dir, "alpserved"))
	b1 := boot(t, os.Stderr, filepath.Join(dir, "alpserved"))
	var coErr bytes.Buffer // read only after the process exits
	co := boot(t, io.MultiWriter(os.Stderr, &coErr), filepath.Join(dir, "alpclusterd"),
		"-backends", "http://"+b0.addr+",http://"+b1.addr)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	url := "http://" + co.addr
	cl := client.New(url)

	rng := rand.New(rand.NewSource(99))
	values := make([]float64, 3*102400+2048)
	for i := range values {
		values[i] = math.Round(rng.Float64()*10000) / 100
	}
	if _, err := cl.Ingest(ctx, "smoke", values); err != nil {
		t.Fatalf("ingest: %v", err)
	}

	lo, hi := 25.0, 75.0
	agg, err := cl.Agg(ctx, "smoke", client.Between(lo, hi))
	if err != nil {
		t.Fatalf("agg: %v", err)
	}
	want, _ := engine.BuildALP(values).FilterAgg(1, engine.Between(lo, hi))
	if agg.Count != want.Count || math.Float64bits(agg.Sum) != math.Float64bits(want.Sum) ||
		math.Float64bits(agg.Min) != math.Float64bits(want.Min) || math.Float64bits(agg.Max) != math.Float64bits(want.Max) {
		t.Fatalf("agg = %+v, want %+v", agg, want)
	}

	rows, err := cl.Scan(ctx, "smoke", client.Between(lo, hi))
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if int64(len(rows)) != want.Count {
		t.Fatalf("scan returned %d rows, want %d", len(rows), want.Count)
	}

	const reqID = "cluster-smoke-1"
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/columns/smoke/count?ge=50", nil)
	req.Header.Set(client.RequestIDHeader, reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get(client.RequestIDHeader) != reqID {
		t.Fatalf("count: status %d, request ID %q, want 200 and %q",
			resp.StatusCode, resp.Header.Get(client.RequestIDHeader), reqID)
	}

	// Graceful shutdown: SIGTERM, drain, clean exit.
	if err := co.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signaling: %v", err)
	}
	select {
	case <-co.exit:
		if co.exitErr != nil {
			t.Fatalf("alpclusterd exited uncleanly: %v", co.exitErr)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("alpclusterd did not exit after SIGTERM")
	}
	for _, line := range []string{"alpclusterd: draining", "alpclusterd: stopped"} {
		if !strings.Contains(coErr.String(), line) {
			t.Errorf("stderr lacks %q:\n%s", line, coErr.String())
		}
	}
}
