package main

import (
	"bufio"
	"context"
	"math"
	"math/rand"
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

// TestServeSmoke is the end-to-end smoke run behind `make serve-smoke`:
// build the real binary, boot it on an ephemeral port, drive an
// ingest -> scan -> agg round-trip through the typed client, check the
// agg against the in-process engine, and shut the process down
// gracefully with SIGTERM.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("binary build+boot skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "alpserved")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building alpserved: %v", err)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting alpserved: %v", err)
	}
	// waitDone is closed (not sent to) when the process is reaped, so
	// both the success path and the deferred cleanup can wait on it.
	waitDone := make(chan struct{})
	var waitErr error
	go func() { waitErr = cmd.Wait(); close(waitDone) }()
	defer func() {
		cmd.Process.Kill()
		<-waitDone
	}()

	// The binary prints "alpserved: listening on ADDR" once bound.
	sc := bufio.NewScanner(stdout)
	var addr string
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening on "); i >= 0 {
			addr = strings.TrimSpace(line[i+len("listening on "):])
			break
		}
	}
	if addr == "" {
		t.Fatalf("alpserved never reported its address (scan err: %v)", sc.Err())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cl := client.New("http://" + addr)

	rng := rand.New(rand.NewSource(99))
	values := make([]float64, 102400+2048)
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
	if agg.Count != want.Count || math.Float64bits(agg.Sum) != math.Float64bits(want.Sum) {
		t.Fatalf("agg = (sum %v, count %d), want (sum %v, count %d)",
			agg.Sum, agg.Count, want.Sum, want.Count)
	}

	rows, err := cl.Scan(ctx, "smoke", client.Between(lo, hi))
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if int64(len(rows)) != want.Count {
		t.Fatalf("scan returned %d rows, want %d", len(rows), want.Count)
	}

	if m, err := cl.Metrics(ctx); err != nil {
		t.Fatalf("metrics: %v", err)
	} else if m["server_requests"] < 3 {
		t.Errorf("server_requests = %d, want >= 3", m["server_requests"])
	}

	// Graceful shutdown: SIGTERM, clean exit.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signaling: %v", err)
	}
	select {
	case <-waitDone:
		if waitErr != nil {
			t.Fatalf("alpserved exited uncleanly: %v", waitErr)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("alpserved did not exit after SIGTERM")
	}
}
