package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"time"

	"github.com/goalp/alp/client"
)

// exchange is one HTTP exchange as the client saw it: from handing the
// request to the transport until the response body hit EOF (or was
// closed), with the request ID the server echoed.
type exchange struct {
	reqID      string
	start, end time.Time
	bytes      int64
	status     int
}

type callKey struct{}

// withCall returns a context under which the recorder attaches every
// exchange to cl.
func withCall(ctx context.Context, cl *call) context.Context {
	return context.WithValue(ctx, callKey{}, cl)
}

// recorder is a RoundTripper that records each exchange on the call
// found in the request's context. Calls made without one pass through
// unrecorded.
type recorder struct {
	base http.RoundTripper
}

func (r *recorder) RoundTrip(req *http.Request) (*http.Response, error) {
	cl, _ := req.Context().Value(callKey{}).(*call)
	if cl == nil {
		return r.base.RoundTrip(req)
	}
	ex := exchange{reqID: req.Header.Get(client.RequestIDHeader), start: time.Now()}
	resp, err := r.base.RoundTrip(req)
	if err != nil {
		ex.end = time.Now()
		cl.exchanges = append(cl.exchanges, ex)
		return nil, err
	}
	if id := resp.Header.Get(client.RequestIDHeader); id != "" {
		ex.reqID = id
	}
	ex.status = resp.StatusCode
	resp.Body = &recordedBody{rc: resp.Body, cl: cl, ex: ex}
	return resp, nil
}

// recordedBody counts the bytes read and closes the exchange at EOF or
// Close, whichever comes first. The client reads a body on the calling
// goroutine, so the call needs no lock.
type recordedBody struct {
	rc   io.ReadCloser
	cl   *call
	ex   exchange
	done bool
}

func (b *recordedBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.ex.bytes += int64(n)
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *recordedBody) Close() error {
	b.finish()
	return b.rc.Close()
}

func (b *recordedBody) finish() {
	if b.done {
		return
	}
	b.done = true
	b.ex.end = time.Now()
	b.cl.exchanges = append(b.cl.exchanges, b.ex)
}

// accessLine is one server access-log line (the server's accessRecord).
type accessLine struct {
	TS     time.Time        `json:"ts"`
	ID     string           `json:"id"`
	Method string           `json:"method"`
	Path   string           `json:"path"`
	Status int              `json:"status"`
	Bytes  int64            `json:"bytes_out"`
	DurNs  int64            `json:"dur_ns"`
	Spans  map[string]int64 `json:"spans"`
	// Server names the process that wrote the line.
	Server string `json:"-"`
}

func (l *accessLine) start() time.Time { return l.TS.Add(-time.Duration(l.DurNs)) }

// readAccessLog parses an access log; lines that are not access records
// are skipped.
func readAccessLog(path, server string) ([]accessLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []accessLine
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var l accessLine
		if json.Unmarshal(sc.Bytes(), &l) != nil || l.ID == "" {
			continue
		}
		l.Server = server
		out = append(out, l)
	}
	return out, sc.Err()
}

// interval is a closed time range in nanoseconds.
type interval struct{ lo, hi int64 }

func span(a, b time.Time) interval { return interval{a.UnixNano(), b.UnixNano()} }

// covered returns how much of p the union of cs covers.
func covered(p interval, cs []interval) int64 {
	var clipped []interval
	for _, c := range cs {
		lo, hi := max(c.lo, p.lo), min(c.hi, p.hi)
		if hi > lo {
			clipped = append(clipped, interval{lo, hi})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, end int64
	first := true
	for _, c := range clipped {
		switch {
		case first || c.lo >= end:
			total += c.hi - c.lo
			end = c.hi
			first = false
		case c.hi > end:
			total += c.hi - end
			end = c.hi
		}
	}
	return total
}

// selfTime is a span's duration minus the part of it its children
// cover; overlapping children are counted once.
func selfTime(p interval, children []interval) int64 {
	return p.hi - p.lo - covered(p, children)
}

// joinByID pairs each exchange with the access-log line carrying its
// request ID.
func joinByID(calls []*call, lines []accessLine) map[*exchange]*accessLine {
	byID := make(map[string]*accessLine, len(lines))
	for i := range lines {
		byID[lines[i].ID] = &lines[i]
	}
	out := make(map[*exchange]*accessLine)
	for _, cl := range calls {
		for i := range cl.exchanges {
			if l, ok := byID[cl.exchanges[i].reqID]; ok {
				out[&cl.exchanges[i]] = l
			}
		}
	}
	return out
}

// joinByOverlap assigns each access-log line to the call whose interval
// overlaps it. It is only sound when calls ran one at a time, as in the
// sequential replay; a line overlapping no call is left out.
func joinByOverlap(calls []*call, lines []accessLine) [][]*accessLine {
	out := make([][]*accessLine, len(calls))
	for i := range lines {
		l := &lines[i]
		li := span(l.start(), l.TS)
		for k, cl := range calls {
			ci := span(cl.start, cl.end)
			if li.lo < ci.hi && ci.lo < li.hi {
				out[k] = append(out[k], l)
				break
			}
		}
	}
	return out
}

// traceSpan is one span of the trace file.
type traceSpan struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ReqID  string `json:"req_id,omitempty"`
}

// spanLog accumulates spans in memory; they are written out at exit.
type spanLog struct {
	spans []traceSpan
}

func (s *spanLog) add(parent int, name string, iv interval, reqID string) int {
	id := len(s.spans) + 1
	s.spans = append(s.spans, traceSpan{ID: id, Parent: parent, Name: name, Start: iv.lo, End: iv.hi, ReqID: reqID})
	return id
}

// stage is one server stage span.
type stage struct {
	name string
	iv   interval
}

// serverStages lays the line's stage durations end to end from the
// start of the server span, in the server's span order: the access log
// records how long each stage took, not when it ran.
func serverStages(l *accessLine) []stage {
	var out []stage
	at := l.start().UnixNano()
	for _, name := range []string{"admission", "registry", "read", "encode", "engine", "write"} {
		if ns := l.Spans[name]; ns > 0 {
			out = append(out, stage{"server." + name, interval{at, at + ns}})
			at += ns
		}
	}
	return out
}
