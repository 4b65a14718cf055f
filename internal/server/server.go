// Package server is the HTTP shell of both column services: alpserved
// mounts the local Registry behind it (New) and alpclusterd mounts
// cluster.Coordinator (NewShell). Both keep every column in its
// ALP-encoded form and answer predicate queries server-side with the
// engine's encoded-domain pushdown operators, or ship raw encoded
// vectors to thin clients that decode locally (the Lemire & Boytsov
// discipline of staying in the packed domain end-to-end). Both binaries
// serve one surface; a Service (service.go) answers only what differs.
//
// API (all JSON errors are {"error": "..."}):
//
//	POST   /v1/columns/{name}            ingest little-endian float64s (streamed into the parallel Writer),
//	                                     or a marshaled column stream verbatim (Content-Type application/x-alp-column)
//	GET    /v1/columns                   list column names
//	GET    /v1/columns/{name}            column info (values, bits/value, schemes, exceptions)
//	DELETE /v1/columns/{name}            drop a column
//	GET    /v1/columns/{name}/agg        filtered SUM/COUNT/MIN/MAX: per-row-group partials merged in row-group order
//	                                     (?partials=rowgroups returns the partials unmerged, ?rgs= a subset)
//	GET    /v1/columns/{name}/count      filtered COUNT: per-row-group counts summed (?partials=rowgroups as above)
//	GET    /v1/columns/{name}/scan       stream qualifying rows (little-endian float64s; ?rg_lo/?rg_hi bound the range)
//	GET    /v1/columns/{name}/data       the compressed column stream (?rg_lo/?rg_hi export a re-based range)
//	GET    /metrics                      codec + service counters, latency quantiles and the service's extras (JSON, sorted keys)
//	GET    /metrics.prom                 the same snapshot in Prometheus text exposition format
//	GET    /v1/metrics/history           range-query the self-telemetry history store (404 when the recorder is off)
//	GET    /healthz                      liveness: 200 whenever the process answers HTTP
//	GET    /readyz                       readiness: 200 while accepting work, 503 while draining
//
// alpserved adds GET /v1/columns/{name}/vectors/{i}, one encoded vector
// as a standalone envelope; alpclusterd adds /v1/cluster/map and
// /v1/cluster/rebalance. Both mount them through Handle, behind the
// same admission and tracing as every other route.
//
// Observability: every admitted request carries a request ID — taken
// from the X-Alp-Request-Id header, generated when absent, and echoed
// back on the response — and an obs.Trace threaded through the request
// context, so the engine and codec layers attribute their time to
// per-request spans (admission, registry, read, encode, engine,
// write). The typed client forwards that ID on every call a
// coordinator makes, so one ID names a request on every process it
// crosses. Each endpoint lands one sample in a log-bucketed latency
// histogram exposed on /metrics as lat_*_p50_ns/_p95_ns/_p99_ns keys.
// When Options.AccessLog is set, every request emits one structured
// JSON line; when Options.SlowQueryLog is set, requests slower than
// SlowQueryThreshold emit the same line marked slow.
//
// Predicates come from query parameters — lo, hi, ge, gt, le, lt, eq —
// each parsed with strconv.ParseFloat and reduced to a closed interval
// exactly like the in-process engine constructors, then intersected.
// Repeated parameters intersect too, so a conjunction of bounds can be
// spelled one key per conjunct (the client's Predicate.And does this).
//
// Fold order: /agg and /count ask the service for per-row-group
// partials, each folded from a fresh accumulator in position order;
// the shell adds them in row-group order, and partials mode returns
// them as they are. The answer is therefore bit-identical (Float64bits)
// to the in-process engine.FilterAgg and to alp.Column's AggRange,
// whichever service computed the partials. ?threads= (default 1, at
// most 64) is a per-request speed hint only; it never changes a result.
//
// Errors: a service wraps ErrNotFound (404), ErrBadRequest (400) or
// ErrUnavailable (503); anything else is a 500. A scan that fails after
// its first byte went out aborts the connection instead, so the
// client sees a transport error and never a silently short 200.
//
// Robustness: a semaphore admission limiter sheds load with 429 +
// Retry-After instead of queueing unboundedly; every request runs
// under a deadline that also bounds raw connection reads and writes,
// so a trickling ingest body or an unread scan response cannot pin an
// admission slot past the timeout; ingest bodies are size-capped;
// Shutdown drains in-flight requests while refusing new ones with 503.
package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/goalp/alp"
	"github.com/goalp/alp/internal/engine"
	"github.com/goalp/alp/internal/format"
	"github.com/goalp/alp/internal/metricstore"
	"github.com/goalp/alp/internal/obs"
)

// Options configures a Server. The zero value gets sane defaults.
type Options struct {
	// MaxConcurrent caps requests in flight; excess load is shed with
	// 429 + Retry-After. 0 means 4 x GOMAXPROCS.
	MaxConcurrent int
	// RequestTimeout bounds each request end-to-end. 0 means 30s.
	RequestTimeout time.Duration
	// MaxBodyBytes caps an ingest request body. 0 means 1 GiB.
	MaxBodyBytes int64
	// RetryAfter is the hint returned with shed load. 0 means 1s.
	RetryAfter time.Duration
	// IngestWorkers is the Writer encode-pool size (0 = one per CPU).
	IngestWorkers int
	// AccessLog, when set, receives one JSON line per admitted request
	// (request ID, method, path, status, bytes, duration, span
	// breakdown). Writes are serialized by the server.
	AccessLog io.Writer
	// SlowQueryLog, when set, receives the same JSON line for requests
	// whose wall time reaches SlowQueryThreshold, marked "slow":true.
	SlowQueryLog io.Writer
	// SlowQueryThreshold is the slow-query cutoff. 0 means 250ms.
	SlowQueryThreshold time.Duration
	// MetricsHistory, when set, is the self-telemetry history store
	// that answers GET /v1/metrics/history. nil disables the endpoint
	// (404) — the recorder's lifecycle belongs to the embedding
	// process (cmd/alpserved), not the server.
	MetricsHistory *metricstore.Store
}

func (o Options) withDefaults() Options {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 4 * runtime.GOMAXPROCS(0)
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 30
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.SlowQueryThreshold <= 0 {
		o.SlowQueryThreshold = 250 * time.Millisecond
	}
	return o
}

// RequestIDHeader carries the request ID: clients may set it to
// correlate their own logs with the server's; the server generates one
// when absent and always echoes the effective ID on the response.
const RequestIDHeader = "X-Alp-Request-Id"

// maxThreads caps per-request scan parallelism so a client cannot ask
// one request to fan out unboundedly.
const maxThreads = 64

// Server is the HTTP shell over one Service. Create with New or
// NewShell, mount Handler, and call Shutdown to drain.
type Server struct {
	opts Options
	svc  Service
	mux  *http.ServeMux
	sem  chan struct{}

	gate drainGate

	// logMu serializes access-log and slow-query-log writes.
	logMu sync.Mutex

	// testHook, when non-nil, runs inside scan/agg handlers after
	// admission — tests use it to hold a request in flight.
	testHook func()
}

// New returns alpserved's server: the shell over a fresh Registry, plus
// the /vectors/{i} route only a local registry can answer.
func New(opts Options) *Server {
	s := NewShell(NewRegistry(), opts)
	s.Handle("GET /v1/columns/{name}/vectors/{i}", obs.HistVectors, func(w http.ResponseWriter, r *http.Request) error {
		c, err := s.column(r)
		if err != nil {
			return err
		}
		return c.(*storedColumn).serveVector(w, r.PathValue("i"))
	})
	return s
}

// NewShell mounts svc behind the shell's /v1/columns surface, the
// metrics endpoints and the probes.
func NewShell(svc Service, opts Options) *Server {
	s := &Server{
		opts: opts.withDefaults(),
		svc:  svc,
		mux:  http.NewServeMux(),
	}
	s.sem = make(chan struct{}, s.opts.MaxConcurrent)
	s.Handle("POST /v1/columns/{name}", obs.HistIngest, s.handleIngest)
	s.Handle("GET /v1/columns", obs.HistMeta, s.handleList)
	s.Handle("GET /v1/columns/{name}", obs.HistMeta, s.handleInfo)
	s.Handle("DELETE /v1/columns/{name}", obs.HistMeta, s.handleDelete)
	s.Handle("GET /v1/columns/{name}/agg", obs.HistAgg, s.handleAgg)
	s.Handle("GET /v1/columns/{name}/count", obs.HistCount, s.handleCount)
	s.Handle("GET /v1/columns/{name}/scan", obs.HistScan, s.handleScan)
	s.Handle("GET /v1/columns/{name}/data", obs.HistData, s.handleData)
	s.Handle("GET /v1/metrics/history", obs.HistHistory, s.handleHistory)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)          // never shed: always observable
	s.mux.HandleFunc("GET /metrics.prom", s.handleMetricsProm) // never shed, same contract
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	return s
}

// Handle mounts a route behind the shell's admission and tracing
// wrapper; ep names its latency histogram. h writes its own success
// response and returns an error otherwise, which the shell maps onto a
// status.
func (s *Server) Handle(pattern string, ep obs.HistID, h func(http.ResponseWriter, *http.Request) error) {
	s.mux.HandleFunc(pattern, s.wrap(ep, h))
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the service: new requests are refused with 503
// immediately, in-flight requests run to completion (or until ctx
// expires). It does not close listeners — pair it with
// http.Server.Shutdown.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.gate.drain(ctx)
}

// drainGate tracks in-flight requests and refuses new ones once
// draining. A plain mutex-guarded counter (not a WaitGroup) so that
// enter-vs-drain races are well-defined: a request either enters
// before the drain and is waited for, or is refused.
type drainGate struct {
	mu       sync.Mutex
	draining bool
	inflight int
	done     chan struct{}
}

func (g *drainGate) enter() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		return false
	}
	g.inflight++
	return true
}

func (g *drainGate) exit() {
	g.mu.Lock()
	g.inflight--
	if g.draining && g.inflight == 0 && g.done != nil {
		close(g.done)
		g.done = nil
	}
	g.mu.Unlock()
}

func (g *drainGate) drain(ctx context.Context) error {
	g.mu.Lock()
	g.draining = true
	if g.inflight == 0 {
		g.mu.Unlock()
		return nil
	}
	if g.done == nil {
		g.done = make(chan struct{})
	}
	done := g.done
	g.mu.Unlock()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (g *drainGate) isDraining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining
}

// wrap applies the admission pipeline to a handler: drain gate (503),
// concurrency limiter (429 + Retry-After), request deadline, and
// response byte accounting. Admitted requests also get the
// observability envelope: a Trace (request ID in, span accumulators
// through the context, ID echoed out), one sample in the endpoint's
// latency histogram, and a structured log line when logging is on. A
// handler's error becomes its status while nothing has been written;
// after that, only an aborted connection is honest.
func (s *Server) wrap(ep obs.HistID, h func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		o := obs.Active()
		start := time.Now()
		if !s.gate.enter() {
			o.ServerRefused()
			w.Header().Set("Connection", "close")
			httpError(w, http.StatusServiceUnavailable, "server is shutting down")
			return
		}
		defer s.gate.exit()
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			// Saturated: shed instead of queueing, so latency stays
			// bounded and the client's retry policy paces the load.
			o.ServerShed()
			w.Header().Set("Retry-After", strconv.Itoa(int(s.opts.RetryAfter.Seconds())))
			httpError(w, http.StatusTooManyRequests, "server at capacity, retry later")
			return
		}
		o.ServerRequest()
		tr := obs.NewTrace(r.Header.Get(RequestIDHeader))
		tr.Start = start
		w.Header().Set(RequestIDHeader, tr.ID)
		ctx, cancel := context.WithTimeout(obs.WithTrace(r.Context(), tr), s.opts.RequestTimeout)
		defer cancel()
		// Bound the raw connection I/O to the same deadline. The context
		// alone is only checked between blocking calls: a client trickling
		// an ingest body (or refusing to read a scan response) would
		// otherwise pin an admission slot indefinitely, since http.Server
		// has no per-request body timeout of its own. Best-effort — an
		// exotic ResponseWriter may not support deadlines, in which case
		// the context deadline still bounds handler compute.
		rc := http.NewResponseController(w)
		ioDeadline := time.Now().Add(s.opts.RequestTimeout)
		rc.SetReadDeadline(ioDeadline)
		rc.SetWriteDeadline(ioDeadline)
		// The server resets the read deadline before the next request on
		// a kept-alive connection but leaves the write deadline alone;
		// clear it so a later request on this connection isn't poisoned.
		defer rc.SetWriteDeadline(time.Time{})
		cw := &countingWriter{ResponseWriter: w}
		tr.AddSince(obs.SpanAdmission, start)
		// Deferred (not sequential) so the byte count, the endpoint
		// latency sample and the log line all land even when the
		// connection is aborted with http.ErrAbortHandler.
		defer func() {
			dur := time.Since(start)
			o.ServerBytesOut(cw.n)
			o.Observe(ep, dur.Nanoseconds())
			s.logRequest(r, tr, cw, dur)
		}()
		if err := h(cw, r.WithContext(ctx)); err != nil {
			if cw.status != 0 {
				// Bytes are on the wire: tear the connection down so the
				// truncation is a transport error the client can see and
				// retry — a scan's completion trailer must not appear.
				panic(http.ErrAbortHandler)
			}
			w.Header().Del("Trailer")
			httpError(cw, errStatus(err), err.Error())
		}
	}
}

// statusError is an error the shell answers with a fixed status.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

func errorf(code int, format string, args ...any) error {
	return &statusError{code: code, msg: fmt.Sprintf(format, args...)}
}

// errStatus maps a handler error onto its HTTP status.
func errStatus(err error) int {
	var se *statusError
	switch {
	case errors.As(err, &se):
		return se.code
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, ErrUnavailable):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// accessRecord is the JSON shape of one access-log (and slow-query)
// line. Spans holds the per-stage durations in nanoseconds, plus an
// "other" entry for wall time no span claimed, so the values sum to
// DurNs (modulo clock reads between span boundaries).
type accessRecord struct {
	Time     string           `json:"ts"`
	ID       string           `json:"id"`
	Method   string           `json:"method"`
	Path     string           `json:"path"`
	Status   int              `json:"status"`
	BytesOut int64            `json:"bytes_out"`
	DurNs    int64            `json:"dur_ns"`
	Spans    map[string]int64 `json:"spans"`
	Slow     bool             `json:"slow,omitempty"`
}

// logRequest emits the structured line for one finished request to the
// access log and, past the threshold, to the slow-query log. Both
// writers share one mutex so concurrent handlers never interleave
// lines.
func (s *Server) logRequest(r *http.Request, tr *obs.Trace, cw *countingWriter, dur time.Duration) {
	slow := s.opts.SlowQueryLog != nil && dur >= s.opts.SlowQueryThreshold
	if s.opts.AccessLog == nil && !slow {
		return
	}
	spans := tr.Spans()
	m := make(map[string]int64, len(spans)+1)
	var attributed int64
	for i, ns := range spans {
		if ns > 0 {
			m[obs.SpanName(obs.Span(i))] = ns
			attributed += ns
		}
	}
	if rest := dur.Nanoseconds() - attributed; rest > 0 {
		m["other"] = rest
	}
	status := cw.status
	if status == 0 {
		status = http.StatusOK
	}
	line, err := json.Marshal(accessRecord{
		Time:     time.Now().UTC().Format(time.RFC3339Nano),
		ID:       tr.ID,
		Method:   r.Method,
		Path:     r.URL.Path,
		Status:   status,
		BytesOut: cw.n,
		DurNs:    dur.Nanoseconds(),
		Spans:    m,
		Slow:     slow,
	})
	if err != nil {
		return
	}
	line = append(line, '\n')
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.opts.AccessLog != nil {
		s.opts.AccessLog.Write(line)
	}
	if slow {
		s.opts.SlowQueryLog.Write(line)
	}
}

// countingWriter counts response payload bytes for the bytes-out
// metric and captures the status code for the access log.
type countingWriter struct {
	http.ResponseWriter
	n      int64
	status int
}

func (w *countingWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\"error\":%q}\n", msg)
}

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// column resolves {name} through the service. The lookup is attributed
// to the request's registry span.
func (s *Server) column(r *http.Request) (Column, error) {
	start := time.Now()
	c, err := s.svc.Column(r.Context(), r.PathValue("name"))
	obs.TraceFrom(r.Context()).AddSince(obs.SpanRegistry, start)
	return c, err
}

// hold runs the test hook, if any.
func (s *Server) hold() {
	if s.testHook != nil {
		s.testHook()
	}
}

// ---- parameter parsing ----

// parsePredicate builds an engine predicate from query parameters by
// intersecting every bound present: lo/ge (v >= x), gt (v > x), hi/le
// (v <= x), lt (v < x), eq (v == x). A parameter may repeat (the
// client's Predicate.And emits one key per conjunct); every occurrence
// is intersected, so the tightest bounds win. No parameters means
// match-all (NaNs never match a range predicate; use /data for an
// exact export). The reductions are the engine's own constructors, so
// a server-side predicate is the same closed interval the in-process
// operators see.
func parsePredicate(q url.Values) (engine.Predicate, error) {
	p := engine.Between(math.Inf(-1), math.Inf(1))
	for _, b := range []struct {
		key   string
		build func(float64) engine.Predicate
	}{
		{"lo", engine.GE},
		{"ge", engine.GE},
		{"gt", engine.GT},
		{"hi", engine.LE},
		{"le", engine.LE},
		{"lt", engine.LT},
		{"eq", engine.EQ},
	} {
		for _, val := range q[b.key] {
			x, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return p, errorf(http.StatusBadRequest, "parameter %q: %v", b.key, err)
			}
			c := b.build(x)
			// Intersection of closed intervals: max lower bound, min upper
			// bound. A NaN bound (e.g. ge=NaN) propagates so the predicate
			// matches nothing, same as the in-process constructors.
			if c.Lo > p.Lo || math.IsNaN(c.Lo) {
				p.Lo = c.Lo
			}
			if c.Hi < p.Hi || math.IsNaN(c.Hi) {
				p.Hi = c.Hi
			}
		}
	}
	return p, nil
}

// parseThreads resolves the ?threads= parameter: a speed hint only,
// default 1. Every aggregate folds per row-group and merges in
// row-group order, so the answer is the same at any value.
func parseThreads(q url.Values) (int, error) {
	v := q.Get("threads")
	if v == "" {
		return 1, nil
	}
	t, err := strconv.Atoi(v)
	if err != nil || t < 1 || t > maxThreads {
		return 0, errorf(http.StatusBadRequest, "threads must be an integer in [1, %d]", maxThreads)
	}
	return t, nil
}

// parseRowGroups resolves the ?rgs= parameter: a comma-separated list
// of row-group indexes (partials mode) selecting which row-groups to
// answer for. nil means all.
func parseRowGroups(q url.Values, numRG int) ([]int, error) {
	raw := q.Get("rgs")
	if raw == "" {
		return nil, nil
	}
	parts := strings.Split(raw, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		g, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || g < 0 || g >= numRG {
			return nil, errorf(http.StatusBadRequest, "rgs entries must be row-group indexes in [0, %d)", numRG)
		}
		out = append(out, g)
	}
	return out, nil
}

// parseRowGroupRange resolves the ?rg_lo= / ?rg_hi= parameters (ranged
// scans and exports). Absent parameters default to the full range;
// either may be given alone.
func parseRowGroupRange(q url.Values, numRG int) (lo, hi int, ranged bool, err error) {
	lo, hi = 0, numRG-1
	if v := q.Get("rg_lo"); v != "" {
		if lo, err = strconv.Atoi(v); err != nil {
			return 0, 0, false, errorf(http.StatusBadRequest, "rg_lo must be an integer")
		}
		ranged = true
	}
	if v := q.Get("rg_hi"); v != "" {
		if hi, err = strconv.Atoi(v); err != nil {
			return 0, 0, false, errorf(http.StatusBadRequest, "rg_hi must be an integer")
		}
		ranged = true
	}
	if ranged && (lo < 0 || hi < lo || hi >= numRG) {
		return 0, 0, false, errorf(http.StatusBadRequest, "row-group range [%d, %d] out of [0, %d)", lo, hi, numRG)
	}
	return lo, hi, ranged, nil
}

// aggQuery parses what /agg and /count share: the predicate, the
// ?threads= hint and, with ?partials=rowgroups, the ?rgs= subset of the
// column's rowGroups.
func aggQuery(q url.Values, rowGroups int) (pred engine.Predicate, threads int, partials bool, idxs []int, err error) {
	pred, err = parsePredicate(q)
	if err == nil {
		threads, err = parseThreads(q)
	}
	partials = q.Get("partials") == "rowgroups"
	if err == nil && partials {
		idxs, err = parseRowGroups(q, rowGroups)
	}
	return pred, threads, partials, idxs, err
}

func validateName(name string) error {
	if name == "" || len(name) > 128 {
		return errorf(http.StatusBadRequest, "column name must be 1..128 bytes")
	}
	if strings.ContainsAny(name, "/\\ \t\n") {
		return errorf(http.StatusBadRequest, "column name must not contain slashes or whitespace")
	}
	return nil
}

// ---- handlers ----

// CompressedContentType marks a request or response body holding a
// marshaled ALP column stream rather than raw float64s. Ingesting it
// skips the encoder entirely — the path rebalancing moves compressed
// row-group ranges over.
const CompressedContentType = "application/x-alp-column"

// handleIngest turns the body into a marshaled column stream and hands
// it to the service's Put: a compressed body verbatim, a raw one
// streamed through the parallel Writer.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("name")
	if err := validateName(name); err != nil {
		return err
	}
	ctx := r.Context()
	tr := obs.TraceFrom(ctx)
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	var data []byte
	var n int64
	var err error
	if r.Header.Get("Content-Type") == CompressedContentType {
		readStart := time.Now()
		data, err = io.ReadAll(body)
		tr.AddSince(obs.SpanRead, readStart)
		n = int64(len(data))
	} else {
		data, n, err = s.encodeRaw(ctx, body)
	}
	if err != nil {
		var se *statusError
		var mbe *http.MaxBytesError
		switch {
		case errors.As(err, &se):
			return err
		case errors.As(err, &mbe):
			return errorf(http.StatusRequestEntityTooLarge, "body exceeds %d-byte cap", s.opts.MaxBodyBytes)
		case errors.Is(err, os.ErrDeadlineExceeded), ctx.Err() != nil:
			// The per-request read deadline set in wrap surfaces a
			// stalled (trickling) body as a deadline error.
			return errorf(http.StatusRequestTimeout, "ingest deadline exceeded")
		}
		return errorf(http.StatusBadRequest, "reading body: %v", err)
	}
	obs.Active().ServerBytesIn(n)
	regStart := time.Now()
	info, err := s.svc.Put(ctx, name, data)
	tr.AddSince(obs.SpanRegistry, regStart)
	if err != nil {
		return err
	}
	WriteJSON(w, http.StatusCreated, info)
	return nil
}

// encodeRaw streams a body of little-endian float64s into a parallel
// Writer: full row-groups are encoded by the bounded pool while the
// body is still arriving, so ingest memory stays bounded at workers+1
// raw row-groups regardless of column size. It returns the marshaled
// stream and the body's byte count.
func (s *Server) encodeRaw(ctx context.Context, body io.Reader) ([]byte, int64, error) {
	tr := obs.TraceFrom(ctx)
	readStart := time.Now()
	wr := alp.NewWriterParallel(alp.WriterOptions{Workers: s.opts.IngestWorkers})
	// Every error return below must tear down the Writer's encode pool,
	// or each failed ingest would permanently leak the pool's worker
	// goroutines plus their in-flight row-group buffers. Abort is a
	// no-op once the success path has called Close.
	defer wr.Abort()
	buf := make([]byte, 256<<10)
	vals := make([]float64, len(buf)/8)
	rem := 0 // bytes carried over to keep 8-byte alignment
	var total int64
	for {
		if err := ctx.Err(); err != nil {
			return nil, total, err
		}
		n, err := body.Read(buf[rem:])
		total += int64(n)
		n += rem
		nv := n / 8
		for i := 0; i < nv; i++ {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
		}
		wr.Write(vals[:nv])
		rem = n - nv*8
		copy(buf, buf[nv*8:n])
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, total, err
		}
	}
	if rem != 0 {
		return nil, total, errorf(http.StatusBadRequest, "body length not a multiple of 8 (%d trailing bytes)", rem)
	}
	// Span accounting: the read loop above overlaps the Writer's encode
	// pool, so SpanRead is "time to drain the body" and SpanEncode is
	// only the tail the encoder still owed when the body ended.
	tr.AddSince(obs.SpanRead, readStart)
	encStart := time.Now()
	data := wr.Close()
	tr.AddSince(obs.SpanEncode, encStart)
	return data, total, nil
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) error {
	WriteJSON(w, http.StatusOK, map[string]any{"columns": s.svc.Names()})
	return nil
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) error {
	c, err := s.column(r)
	if err != nil {
		return err
	}
	WriteJSON(w, http.StatusOK, c.Info())
	return nil
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) error {
	if err := s.svc.Delete(r.Context(), r.PathValue("name")); err != nil {
		return err
	}
	w.WriteHeader(http.StatusNoContent)
	return nil
}

// aggResponse carries FilterAgg results. Sum, Min and Max are strings
// (strconv 'g'/-1) so ±Inf survive JSON and finite values round-trip
// bit-exactly.
type aggResponse struct {
	Sum     string `json:"sum"`
	Count   int64  `json:"count"`
	Min     string `json:"min"`
	Max     string `json:"max"`
	Touched int    `json:"touched"`
	Threads int    `json:"threads"`
}

func fmtFloat(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// aggPartialWire is one row-group's partial aggregate in the
// partials=rowgroups response; float fields use the same exact 'g'/-1
// encoding as aggResponse so merging coordinators round-trip bits.
type aggPartialWire struct {
	Sum   string `json:"sum"`
	Count int64  `json:"count"`
	Min   string `json:"min"`
	Max   string `json:"max"`
}

// handleAgg answers both modes from the service's per-row-group
// partials: returned as they are (?partials=rowgroups) or merged in
// row-group order — the fold order that makes the answer the same at
// any ?threads= and through a coordinator.
func (s *Server) handleAgg(w http.ResponseWriter, r *http.Request) error {
	c, err := s.column(r)
	if err != nil {
		return err
	}
	pred, threads, partials, idxs, err := aggQuery(r.URL.Query(), c.Info().NumRowGroups)
	if err != nil {
		return err
	}
	s.hold()
	start := time.Now()
	parts, touched, err := c.AggPartials(r.Context(), pred, threads, idxs)
	obs.TraceFrom(r.Context()).AddSince(obs.SpanEngine, start)
	if err != nil {
		return err
	}
	obs.Active().ServerScanned()
	if partials {
		wire := make([]aggPartialWire, len(parts))
		for i, a := range parts {
			wire[i] = aggPartialWire{Sum: fmtFloat(a.Sum), Count: a.Count, Min: fmtFloat(a.Min), Max: fmtFloat(a.Max)}
		}
		WriteJSON(w, http.StatusOK, map[string]any{"rowgroups": wire, "touched": touched, "threads": threads})
		return nil
	}
	agg := engine.MergeAggs(parts)
	WriteJSON(w, http.StatusOK, aggResponse{
		Sum:     fmtFloat(agg.Sum),
		Count:   agg.Count,
		Min:     fmtFloat(agg.Min),
		Max:     fmtFloat(agg.Max),
		Touched: touched,
		Threads: threads,
	})
	return nil
}

// handleCount mirrors handleAgg for COUNT(*): the per-row-group counts,
// returned as they are or summed.
func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) error {
	c, err := s.column(r)
	if err != nil {
		return err
	}
	pred, threads, partials, idxs, err := aggQuery(r.URL.Query(), c.Info().NumRowGroups)
	if err != nil {
		return err
	}
	start := time.Now()
	counts, err := c.CountPartials(r.Context(), pred, threads, idxs)
	obs.TraceFrom(r.Context()).AddSince(obs.SpanEngine, start)
	if err != nil {
		return err
	}
	obs.Active().ServerScanned()
	if partials {
		WriteJSON(w, http.StatusOK, map[string]any{"rowgroups": counts, "threads": threads})
		return nil
	}
	var count int64
	for _, n := range counts {
		count += n
	}
	WriteJSON(w, http.StatusOK, map[string]any{"count": count, "threads": threads})
	return nil
}

// ScanRowsTrailer is the HTTP trailer carrying the number of rows a
// /scan response streamed. It is written only when the scan ran to
// completion, so a client can distinguish a full result from a stream
// cut short — a truncated body is otherwise indistinguishable from a
// complete one, because every prefix of the stream is 8-byte aligned.
const ScanRowsTrailer = "X-Alp-Scan-Rows"

// scanAcceptsCompressed reports whether the request's Accept header
// opts into the selection-aware scan stream (format.ScanContentType).
// Plain media-range matching over the comma-separated list; absent or
// non-matching Accept values keep the raw float64 encoding, so old
// clients are untouched.
func scanAcceptsCompressed(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt := part
		if i := strings.IndexByte(mt, ';'); i >= 0 {
			mt = mt[:i]
		}
		if strings.TrimSpace(mt) == format.ScanContentType {
			return true
		}
	}
	return false
}

// handleScan streams the rows matching the predicate, in position
// order. The wire encoding is negotiated: `Accept: application/x-alp-scan`
// selects the framed selection-aware stream (compressed per-vector
// payloads the client decodes with the fused kernels); anything else
// gets raw little-endian float64s. Either way the service writes the
// body incrementally and completion is framed by the ScanRowsTrailer.
func (s *Server) handleScan(w http.ResponseWriter, r *http.Request) error {
	c, err := s.column(r)
	if err != nil {
		return err
	}
	q := r.URL.Query()
	pred, err := parsePredicate(q)
	if err != nil {
		return err
	}
	info := c.Info()
	rgLo, rgHi, _, err := parseRowGroupRange(q, info.NumRowGroups)
	if err != nil {
		return err
	}
	s.hold()
	compressed := scanAcceptsCompressed(r.Header.Get("Accept"))
	h := w.Header()
	h.Set("Trailer", ScanRowsTrailer)
	h.Set("Content-Type", "application/x-alp-f64le")
	if compressed {
		h.Set("Content-Type", format.ScanContentType)
	}
	h.Set("X-Alp-Column-Values", strconv.Itoa(info.Values))
	rows, err := c.Scan(r.Context(), pred, rgLo, rgHi, compressed, w)
	obs.Active().ServerScanned()
	if err != nil {
		return err
	}
	h.Set(ScanRowsTrailer, strconv.Itoa(rows))
	return nil
}

// handleData serves the column's compressed stream, or with
// ?rg_lo/?rg_hi a standalone re-based column holding just that
// row-group range.
func (s *Server) handleData(w http.ResponseWriter, r *http.Request) error {
	c, err := s.column(r)
	if err != nil {
		return err
	}
	info := c.Info()
	rgLo, rgHi, ranged, err := parseRowGroupRange(r.URL.Query(), info.NumRowGroups)
	if err != nil {
		return err
	}
	data, err := c.Data(r.Context(), rgLo, rgHi, ranged)
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", CompressedContentType)
	if !ranged {
		w.Header().Set("X-Alp-Column-Values", strconv.Itoa(info.Values))
	}
	w.Write(data)
	return nil
}

// handleMetrics serves the codec + service counter snapshot as JSON —
// the same shape alpbench -metrics exposes (counters plus the
// lat_*/stage_* latency-histogram keys), spliced with the service's
// extras (alpserved's per-column "columns" object, alpclusterd's
// cluster_* and per-backend latency keys) and, when the history
// recorder is on, a "metrics_history" object with its footprint. Keys
// are emitted in sorted order, so two reads of identical state are
// byte-identical — diff-friendly for scrape tooling. Not gated: a
// draining or saturated server must stay observable.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	extras := s.svc.MetricsExtras()
	if st := s.opts.MetricsHistory; st != nil {
		if hs, err := json.Marshal(st.Stats()); err == nil {
			extras = append(extras, obs.Extra{Name: "metrics_history", JSON: string(hs)})
		}
	}
	fmt.Fprintln(w, obs.Active().Snapshot().JSON(extras...))
}

// handleMetricsProm serves the same snapshot in the Prometheus text
// exposition format, so standard scrapers need no JSON shim.
func (s *Server) handleMetricsProm(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", obs.PromContentType)
	obs.Active().Snapshot().WritePrometheus(w)
}

// handleHealth is the liveness probe: 200 whenever the process can
// answer HTTP at all — a draining server is still alive, so restarts
// keyed to this probe do not kill a graceful shutdown mid-drain.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// handleReady is the readiness probe: it flips to 503 the moment a
// drain starts, so load balancers stop routing new work while
// in-flight requests finish.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.gate.isDraining() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}
