// Request-scoped tracing: a lightweight span context that rides a
// request's context.Context from the server's admission wrapper through
// the engine operators, accumulating per-stage wall time on atomics so
// morsel-parallel workers can report into one trace concurrently. A
// Trace is not a distributed-tracing span tree — it is the minimal
// structure that answers "where did this request spend its time":
// admission vs registry lookup vs kernel vs HTTP write.
//
// All methods are nil-safe: code holding a possibly-absent trace (from
// TraceFrom on an untraced context) calls methods unconditionally.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync/atomic"
	"time"
)

// Span names one timed section of a request.
type Span int

const (
	SpanAdmission Span = iota // drain gate + limiter + deadline setup
	SpanRegistry              // column registry lookup
	SpanRead                  // request body read (ingest)
	SpanEncode                // row-group encodes summed over workers, plus the marshal (ingest)
	SpanEngine                // engine kernel work (agg/count/scan compute)
	SpanWrite                 // response payload writes
	NumSpans
)

var spanNames = [NumSpans]string{
	SpanAdmission: "admission",
	SpanRegistry:  "registry",
	SpanRead:      "read",
	SpanEncode:    "encode",
	SpanEngine:    "engine",
	SpanWrite:     "write",
}

// SpanName returns the stable name of s ("admission", "engine", ...).
func SpanName(s Span) string {
	if s < 0 || s >= NumSpans {
		return "unknown"
	}
	return spanNames[s]
}

// Trace accumulates per-span wall time for one request. The zero value
// is usable; create with NewTrace to get an ID and start time. Span
// accumulators are atomics so concurrent scan workers can add to the
// same trace without coordination.
type Trace struct {
	// ID is the request ID: taken from the X-Alp-Request-Id header when
	// the client sent one, generated otherwise.
	ID string
	// Start is when the server accepted the request.
	Start time.Time

	spans [NumSpans]atomic.Int64
}

// NewTrace returns a trace with the given request ID (generating one
// if empty) started now.
func NewTrace(id string) *Trace {
	if id == "" {
		id = NewRequestID()
	}
	return &Trace{ID: id, Start: time.Now()}
}

// NewRequestID returns a fresh 16-hex-char random request ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; here a
		// degenerate ID only degrades log correlation.
		return "00000000--------"[:16]
	}
	return hex.EncodeToString(b[:])
}

// Add accumulates ns of wall time into span s. Nil-safe; negative
// durations are dropped.
func (t *Trace) Add(s Span, ns int64) {
	if t == nil || s < 0 || s >= NumSpans || ns < 0 {
		return
	}
	t.spans[s].Add(ns)
}

// AddSince accumulates the wall time elapsed since start into span s.
func (t *Trace) AddSince(s Span, start time.Time) {
	if t == nil {
		return
	}
	t.Add(s, time.Since(start).Nanoseconds())
}

// Spans returns the accumulated per-span nanoseconds.
func (t *Trace) Spans() [NumSpans]int64 {
	var out [NumSpans]int64
	if t == nil {
		return out
	}
	for i := range out {
		out[i] = t.spans[i].Load()
	}
	return out
}

// traceKey is the context key for the request trace.
type traceKey struct{}

// WithTrace returns ctx carrying t.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the trace carried by ctx, or nil. The nil result
// is usable directly: every Trace method no-ops on nil.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
