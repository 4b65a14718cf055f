package pipeline

import (
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/goalp/alp/internal/obs"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(4); got != 4 {
		t.Fatalf("Workers(4) = %d", got)
	}
	if got := Workers(1); got != 1 {
		t.Fatalf("Workers(1) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
}

// TestRunCoversEveryItemOnce is the scheduler's core contract: every
// item in [0, n) is processed exactly once, at every worker count.
func TestRunCoversEveryItemOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16, 100} {
		const n = 53
		var hits [n]atomic.Int64
		Run(n, workers, obs.PipelineWorkers, obs.PipelineClaims, func(_, item int) {
			hits[item].Add(1)
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: item %d processed %d times", workers, i, got)
			}
		}
	}
}

func TestRunZeroAndOneItems(t *testing.T) {
	calls := 0
	Run(0, 8, obs.PipelineWorkers, obs.PipelineClaims, func(_, _ int) { calls++ })
	if calls != 0 {
		t.Fatalf("Run(0) made %d calls", calls)
	}
	Run(1, 8, obs.PipelineWorkers, obs.PipelineClaims, func(worker, item int) {
		calls++
		if worker != 0 || item != 0 {
			t.Fatalf("Run(1) got worker=%d item=%d", worker, item)
		}
	})
	if calls != 1 {
		t.Fatalf("Run(1) made %d calls", calls)
	}
}

// TestRunWorkerIDsAreDisjoint checks the per-worker-scratch contract:
// worker ids stay below the effective worker count, so a caller-side
// scratch slice indexed by worker id is race-free.
func TestRunWorkerIDsAreDisjoint(t *testing.T) {
	const n, workers = 40, 4
	var perWorker [workers]atomic.Int64
	Run(n, workers, obs.PipelineWorkers, obs.PipelineClaims, func(worker, _ int) {
		if worker < 0 || worker >= workers {
			t.Errorf("worker id %d out of range", worker)
			return
		}
		perWorker[worker].Add(1)
	})
	total := int64(0)
	for i := range perWorker {
		total += perWorker[i].Load()
	}
	if total != n {
		t.Fatalf("processed %d items, want %d", total, n)
	}
}

// TestPoolOrdersResultsBySubmission feeds jobs that finish in a
// scrambled order and asserts Finish returns them in submission order —
// the determinism contract the parallel Writer relies on.
func TestPoolOrdersResultsBySubmission(t *testing.T) {
	const n = 64
	p := NewPool(4, func(_ int, j int) int {
		// Vary the work per job so completion order scrambles.
		s := 0
		for i := 0; i < (j%7)*1000; i++ {
			s += i
		}
		_ = s
		return j * 10
	})
	for j := 0; j < n; j++ {
		p.Submit(j)
	}
	got := p.Finish()
	if len(got) != n {
		t.Fatalf("Finish returned %d results, want %d", len(got), n)
	}
	for j := range got {
		if got[j] != j*10 {
			t.Fatalf("result %d = %d, want %d", j, got[j], j*10)
		}
	}
}

func TestPoolNoJobs(t *testing.T) {
	p := NewPool(3, func(_ int, j int) int { return j })
	if got := p.Finish(); len(got) != 0 {
		t.Fatalf("empty pool returned %d results", len(got))
	}
}

// TestPoolBoundsInFlight asserts the workers+1 window: with workers
// blocked, the producer can queue exactly one more job before Submit
// would block.
func TestPoolBoundsInFlight(t *testing.T) {
	const workers = 2
	gate := make(chan struct{})
	var started atomic.Int64
	p := NewPool(workers, func(_ int, j int) int {
		started.Add(1)
		<-gate
		return j
	})
	// Fill the window from a producer goroutine: workers jobs get
	// claimed, one sits in the queue, and the (workers+2)-th submission
	// must block until a worker is released.
	submitted := make(chan int, 16)
	go func() {
		for j := 0; j < workers+2; j++ {
			p.Submit(j)
			submitted <- j
		}
		close(submitted)
	}()
	for len(submitted) < workers+1 {
		runtime.Gosched()
	}
	// The producer is now stuck on the last Submit; nothing beyond the
	// window may have been accepted.
	if n := len(submitted); n != workers+1 {
		t.Fatalf("submitted %d jobs with workers stalled, want %d", n, workers+1)
	}
	close(gate)
	results := make(map[int]bool)
	for j := range submitted {
		results[j] = true
	}
	got := p.Finish()
	if len(got) != workers+2 {
		t.Fatalf("Finish returned %d results, want %d", len(got), workers+2)
	}
}
