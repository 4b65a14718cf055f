package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"github.com/goalp/alp/client"
	"github.com/goalp/alp/internal/engine"
)

// smallSize is a sizing for in-process tests.
var smallSize = sizing{aggN: 4096, scanTempN: 4096, scanPOIN: 2048, ingestN: 2048, ingestPool: 8192,
	clusterN: 4096, predicates: 4}

// TestFailuresAreCountedNotRetried drives agg-wide's request and check
// against a stub that, in turn, sheds with 429, fails with 500, returns
// a tampered sum, cuts the body short, and answers correctly. Every
// failure must be counted once, with no retry, and only the tampered
// sum counts as a wrong answer.
func TestFailuresAreCountedNotRetried(t *testing.T) {
	w := &aggWide{}
	if err := w.prepare(1, smallSize); err != nil {
		t.Fatal(err)
	}
	var hits atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		k := hits.Add(1) - 1
		switch k % 5 {
		case 0:
			rw.Header().Set("Retry-After", "0")
			http.Error(rw, `{"error":"shed"}`, http.StatusTooManyRequests)
			return
		case 1:
			http.Error(rw, `{"error":"boom"}`, http.StatusInternalServerError)
			return
		case 3:
			// A body cut short: a transport error after the response
			// began, which the HTTP transport does not retry.
			rw.Header().Set("Content-Length", "100")
			rw.Write([]byte(`{"sum":`))
			rw.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		}
		lo, _ := strconv.ParseFloat(r.URL.Query().Get("lo"), 64)
		hi, _ := strconv.ParseFloat(r.URL.Query().Get("hi"), 64)
		a, _ := w.col.rel.FilterAgg(1, engine.Between(lo, hi))
		if k%5 == 2 {
			a.Sum = math.Nextafter(a.Sum, math.Inf(1))
		}
		f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
		json.NewEncoder(rw).Encode(map[string]any{"sum": f(a.Sum), "count": a.Count, "min": f(a.Min), "max": f(a.Max)})
	}))
	defer stub.Close()

	cl := client.New(stub.URL, client.WithRetries(0))
	d := &deck{list: w.requests(), rng: rand.New(rand.NewSource(7))}
	op := func(ctx context.Context, c int, out *call) { w.do(ctx, cl, c, d.next(), out) }
	res, err := runLoop(context.Background(), loopConfig{clients: 1, windows: 2, window: 50 * time.Millisecond,
		pause: 10 * time.Millisecond}, op)
	if err != nil {
		t.Fatal(err)
	}
	n := hits.Load()
	if res.attempted != n || n < 10 {
		t.Fatalf("attempted %d, stub saw %d requests", res.attempted, n)
	}
	// Requests cycle through the five cases; four of them fail.
	wantFailed := n / 5 * 4
	for k := n / 5 * 5; k < n; k++ {
		if k%5 != 4 {
			wantFailed++
		}
	}
	wantWrong := n / 5
	if n%5 > 2 {
		wantWrong++
	}
	if res.failed != wantFailed || res.wrong != wantWrong {
		t.Errorf("failed %d wrong %d of %d, want %d and %d", res.failed, res.wrong, n, wantFailed, wantWrong)
	}
	var ok int
	for _, win := range res.windows {
		ok += len(win.lat)
	}
	if int64(ok) != n-res.failed {
		t.Errorf("%d latency samples, want one per success (%d)", ok, n-res.failed)
	}
}
