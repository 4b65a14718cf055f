package main

import (
	"context"
	"math"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smokeSize runs every workload in a couple of seconds: columns of a
// few row-groups, short windows and a small replay.
var smokeSize = sizing{
	aggN:       204800,
	scanTempN:  102400,
	scanPOIN:   51200,
	ingestN:    20480,
	ingestPool: 81920,
	clusterN:   204800,
	predicates: 8,
	warmup:     100 * time.Millisecond,
	window:     250 * time.Millisecond,
	pause:      30 * time.Millisecond,
	setups:     1,
	replay:     20,
	rungBudget: 10 * time.Millisecond,
}

// testLog writes the benchmark's report lines to the test log.
type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// TestSmokeEveryWorkload builds the real server binaries and runs every
// workload of BENCHMARK.json for two windows, untraced and traced,
// checking that every metric is reported with its unit and that no
// request failed.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the servers")
	}
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	for _, name := range []string{"alpserved", "alpclusterd"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, name), "./cmd/"+name)
		cmd.Dir = ".."
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
	}
	for _, wl := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			metrics := spec.EndToEnd
			if traced {
				metrics = spec.PerLayer
			}
			t.Run(wl.Name+map[bool]string{false: "", true: "/traced"}[traced], func(t *testing.T) {
				res, err := run(context.Background(), runConfig{workload: wl.Name, seed: 1, windows: 2,
					trace: traced, bin: bin, out: t.TempDir(), spec: spec, size: smokeSize, log: testLog{t}})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct %v, failed %d of %d", res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(metrics) {
					t.Errorf("%d metrics reported, spec lists %d", len(res.Metrics), len(metrics))
				}
				for _, m := range metrics {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
						t.Errorf("%s: reported %+v (present %v), want a finite value in %s", m.Name, got, ok, m.Unit)
					}
				}
			})
		}
	}
}
