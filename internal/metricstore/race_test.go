package metricstore

import (
	"io"
	"sync"
	"testing"
	"time"

	"github.com/goalp/alp/internal/obs"
)

// TestConcurrentScrapeRecordQuery is the -race hammer: a live obs
// collector being recorded into from several goroutines while the
// recorder scrapes it, queries run, snapshots serialize, and stats are
// read — all concurrently, including the Start/Stop background loop.
func TestConcurrentScrapeRecordQuery(t *testing.T) {
	var c obs.Collector
	st := New(Options{
		Interval:      200 * time.Microsecond,
		WindowSamples: 8,
		Source:        c.Snapshot,
	})
	st.Start()
	defer st.Stop()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	time.AfterFunc(150*time.Millisecond, func() { close(stop) })

	// Writers: hammer the collector the way real request handlers do.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Add(obs.ServerRequests, 1)
				c.Observe(obs.HistScan, int64(i%5000))
				c.VectorDecoded(1024, 100)
			}
		}(w)
	}
	// Extra manual scrapes racing the background ticker.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				st.ScrapeOnce()
			}
		}
	}()
	// Readers: queries, raw dumps, stats, serialization.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			now := time.Now().UnixMicro()
			if _, err := st.Query("server_requests", now-10_000_000, now+1, 10*time.Millisecond, AggSum); err != nil {
				t.Error(err)
				return
			}
			if _, _, err := st.Raw("lat_scan_count"); err != nil {
				t.Error(err)
				return
			}
			st.Stats()
			if _, err := st.WriteTo(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	st.Flush()

	s := st.Stats()
	if s.Scrapes == 0 {
		t.Fatal("hammer produced no scrapes")
	}
	// Double Stop must be safe, as must Stop racing nothing.
	st.Stop()
	st2 := New(Options{})
	st2.Stop() // never started
}
