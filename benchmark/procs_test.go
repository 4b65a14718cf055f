package main

import (
	"context"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain turns the test binary into a stand-in server process when
// BENCH_BURNER is set: it burns 100 ms of CPU for every byte on stdin
// and exits at EOF.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_BURNER") == "1" {
		buf := make([]byte, 1)
		for {
			if _, err := os.Stdin.Read(buf); err != nil {
				os.Exit(0)
			}
			for until := time.Now().Add(100 * time.Millisecond); time.Now().Before(until); {
			}
		}
	}
	os.Exit(m.Run())
}

// TestServerCPUCountsThePauses is the guard on host calibration: a
// server that does its work while the clients pause, where it would
// slow the reference kernel and look like a slower host, must still be
// charged for that CPU.
func TestServerCPUCountsThePauses(t *testing.T) {
	measure := func(burnInPauses bool) float64 {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "BENCH_BURNER=1")
		stdin, err := cmd.StdinPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		defer func() {
			stdin.Close()
			cmd.Wait()
		}()
		cfg := loopConfig{clients: 1, windows: 3, window: 100 * time.Millisecond, pause: 150 * time.Millisecond,
			cpu: func() (time.Duration, error) { return cpuTime(cmd.Process.Pid) }}
		if burnInPauses {
			cfg.atPause = func(int) { stdin.Write([]byte{1}) }
		}
		op := func(ctx context.Context, _ int, out *call) {
			timed(out, func() error { time.Sleep(5 * time.Millisecond); return nil })
			out.values = 1
		}
		res, err := runLoop(context.Background(), cfg, op)
		if err != nil {
			t.Fatal(err)
		}
		return summarize(res, 0).cpuMsPerOp
	}
	idle, busy := measure(false), measure(true)
	// Four pauses burn 400 ms over about 60 calls, some 6.7 ms per call.
	if busy-idle < 3 {
		t.Errorf("server_cpu_ms_per_op %.3g with CPU burnt in the pauses, %.3g without", busy, idle)
	}
}

func TestCPUTimeAndPeakRSSOfThisProcess(t *testing.T) {
	pid := os.Getpid()
	before, err := cpuTime(pid)
	if err != nil {
		t.Fatal(err)
	}
	for until := time.Now().Add(50 * time.Millisecond); time.Now().Before(until); {
	}
	after, err := cpuTime(pid)
	if err != nil || after-before < 20*time.Millisecond {
		t.Errorf("cpu time went from %v to %v (%v) after 50 ms of spinning", before, after, err)
	}
	if rss, err := peakRSS(pid); err != nil || rss < 1<<20 {
		t.Errorf("peak RSS %d, %v", rss, err)
	}
	if _, err := parseVmHWM(strings.NewReader("Name:\tx\nVmHWM:\t   12 kB\n")); err != nil {
		t.Error(err)
	}
	if n, _ := parseVmHWM(strings.NewReader("VmHWM:\t   12 kB\n")); n != 12<<10 {
		t.Errorf("VmHWM parsed as %d", n)
	}
	if _, err := parseVmHWM(strings.NewReader("VmRSS:\t1 kB\n")); err == nil {
		t.Error("missing VmHWM not reported")
	}
}
