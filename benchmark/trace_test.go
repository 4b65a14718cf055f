package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"github.com/goalp/alp/client"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping counted once", []interval{{10, 30}, {20, 50}}, 60},
		{"nested", []interval{{10, 60}, {20, 30}}, 50},
		{"clipped to the parent", []interval{{-20, 10}, {90, 130}}, 80},
		{"unsorted mix", []interval{{90, 120}, {20, 50}, {10, 30}}, 50},
		{"covering", []interval{{0, 100}, {40, 60}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

var t0 = time.Unix(1700000000, 0)

func at(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }

// line is an access-log line that ended at end ms after lasting dur ms.
func line(id string, end, dur int, spans map[string]int64) accessLine {
	return accessLine{ID: id, TS: at(end), DurNs: int64(dur) * int64(time.Millisecond), Spans: spans}
}

func TestJoinByIDMatchesEachExchange(t *testing.T) {
	a := &call{exchanges: []exchange{{reqID: "a"}}}
	b := &call{exchanges: []exchange{{reqID: "b"}, {reqID: "zz"}}}
	lines := []accessLine{line("b", 5, 1, nil), line("a", 9, 1, nil), line("other", 9, 1, nil)}
	got := joinByID([]*call{a, b}, lines)
	if got[&a.exchanges[0]].ID != "a" || got[&b.exchanges[0]].ID != "b" {
		t.Errorf("wrong pairing: %+v", got)
	}
	if _, ok := got[&b.exchanges[1]]; ok || len(got) != 2 {
		t.Errorf("an exchange with no line was joined: %d joins", len(got))
	}
}

func TestJoinByOverlapAssignsLinesToTheirCall(t *testing.T) {
	calls := []*call{{start: at(0), end: at(10)}, {start: at(20), end: at(30)}}
	lines := []accessLine{
		line("x", 9, 4, nil),  // [5, 9] inside call 0
		line("y", 28, 6, nil), // [22, 28] inside call 1
		line("z", 26, 2, nil), // [24, 26] inside call 1
		line("w", 15, 3, nil), // [12, 15] between the calls
	}
	got := joinByOverlap(calls, lines)
	if len(got[0]) != 1 || got[0][0].ID != "x" {
		t.Errorf("call 0 got %v", ids(got[0]))
	}
	if len(got[1]) != 2 || got[1][0].ID != "y" || got[1][1].ID != "z" {
		t.Errorf("call 1 got %v", ids(got[1]))
	}
}

func ids(ls []*accessLine) []string {
	var out []string
	for _, l := range ls {
		out = append(out, l.ID)
	}
	return out
}

func TestLayersPartitionTheLatency(t *testing.T) {
	ms := int64(time.Millisecond)
	cl := &call{start: at(0), end: at(20), exchanges: []exchange{{reqID: "r", start: at(2), end: at(18), bytes: 300}}}
	l := line("r", 16, 10, map[string]int64{"admission": ms, "registry": ms, "engine": 6 * ms})
	c, ok := layersByID(cl, map[*exchange]*accessLine{&cl.exchanges[0]: &l})
	if !ok {
		t.Fatal("not joined")
	}
	want := callLayers{latency: 20e6, clientSelf: 4e6, wireSelf: 6e6, serverTotal: 10e6, serverSelf: 4e6,
		admission: 1e6, registry: 1e6, exchange: 16e6, bytes: 300}
	if c != want {
		t.Errorf("layers %+v, want %+v", c, want)
	}
	if c.selfSum() != c.latency {
		t.Errorf("self times sum to %v, latency %v", c.selfSum(), c.latency)
	}
}

func TestLayersByOverlapFollowsTheLastBackend(t *testing.T) {
	ms := int64(time.Millisecond)
	cl := &call{start: at(0), end: at(30), exchanges: []exchange{{start: at(1), end: at(29)}}}
	early := line("b0", 12, 8, map[string]int64{"engine": 4 * ms}) // [4, 12]
	late := line("b1", 20, 10, map[string]int64{"engine": 5 * ms}) // [10, 20]
	c, ok := layersByOverlap(cl, []*accessLine{&early, &late})
	if !ok {
		t.Fatal("not attributed")
	}
	if c.fanout != 2 || c.serverTotal != 10e6 || c.serverSelf != 5e6 || c.wireSelf != 18e6 || c.clientSelf != 2e6 {
		t.Errorf("layers %+v", c)
	}
	// The coordinator's own share is what neither backend covers: 28 ms
	// of exchange minus the union [4, 20].
	if c.clusterSelf != 12e6 {
		t.Errorf("cluster self %v, want 12e6", c.clusterSelf)
	}
	if c.selfSum() != c.latency {
		t.Errorf("self times sum to %v, latency %v", c.selfSum(), c.latency)
	}
}

func TestMiddleBandAveragesAroundTheMedian(t *testing.T) {
	var cs []callLayers
	for i := 1; i <= 10; i++ {
		cs = append(cs, callLayers{latency: float64(i), clientSelf: float64(i)})
	}
	m := middleBand(cs)
	if m.latency != 5.5 || m.clientSelf != 5.5 {
		t.Errorf("band %+v, want latency 5.5", m)
	}
	if one := middleBand(cs[:1]); one.latency != 1 {
		t.Errorf("single-call band latency %v", one.latency)
	}
}

func TestRecorderCapturesExchanges(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(client.RequestIDHeader, r.Header.Get(client.RequestIDHeader))
		io.WriteString(w, `{"count": 7}`)
	}))
	defer srv.Close()
	cl := client.New(srv.URL, client.WithRetries(0),
		client.WithHTTPClient(&http.Client{Transport: &recorder{base: http.DefaultTransport}}))
	rec := &call{}
	n, err := cl.Count(withCall(context.Background(), rec), "c", client.All())
	if err != nil || n != 7 {
		t.Fatalf("count %d, %v", n, err)
	}
	if len(rec.exchanges) != 1 {
		t.Fatalf("%d exchanges recorded", len(rec.exchanges))
	}
	e := rec.exchanges[0]
	if len(e.reqID) != 16 || e.bytes != int64(len(`{"count": 7}`)) || e.status != 200 || !e.end.After(e.start) {
		t.Errorf("exchange %+v", e)
	}
	// A call without a recording context passes through.
	if _, err := cl.Count(context.Background(), "c", client.All()); err != nil {
		t.Fatal(err)
	}
	if len(rec.exchanges) != 1 {
		t.Error("an unrecorded call was attached")
	}
}

func TestReadAccessLogSkipsForeignLines(t *testing.T) {
	path := t.TempDir() + "/access.jsonl"
	body := `{"ts":"2024-01-02T03:04:05.000000006Z","id":"ab","method":"GET","path":"/x","status":200,"bytes_out":5,"dur_ns":7,"spans":{"engine":3}}
not json
{"no":"id"}
`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	ls, err := readAccessLog(path, "s0")
	if err != nil || len(ls) != 1 {
		t.Fatalf("%d lines, %v", len(ls), err)
	}
	// The span starts dur_ns before ts: 05.000000006 - 7 ns.
	l := ls[0]
	if l.Server != "s0" || l.Spans["engine"] != 3 || l.start().Nanosecond() != 999999999 {
		t.Errorf("line %+v starts at %v", l, l.start())
	}
}
