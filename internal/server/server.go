// Package server implements alpserved's HTTP API: a compressed-column
// service that keeps every column in its ALP-encoded form and answers
// predicate queries server-side with the engine's encoded-domain
// pushdown operators, or ships raw encoded vectors to thin clients
// that decode locally (the Lemire & Boytsov discipline of staying in
// the packed domain end-to-end).
//
// API (all JSON errors are {"error": "..."}):
//
//	POST   /v1/columns/{name}            ingest little-endian float64s (streamed into the parallel Writer),
//	                                     or a marshaled column stream verbatim (Content-Type application/x-alp-column)
//	GET    /v1/columns                   list column names
//	GET    /v1/columns/{name}            column info (values, bits/value, schemes, exceptions)
//	DELETE /v1/columns/{name}            drop a column
//	GET    /v1/columns/{name}/agg        filtered SUM/COUNT/MIN/MAX: engine.FilterAggPartials merged in row-group order
//	                                     (?partials=rowgroups returns the partials unmerged, ?rgs= a subset)
//	GET    /v1/columns/{name}/count      filtered COUNT: engine.FilterCountPartials summed (?partials=rowgroups as above)
//	GET    /v1/columns/{name}/scan       stream qualifying rows (little-endian float64s; ?rg_lo/?rg_hi bound the range)
//	GET    /v1/columns/{name}/data       the compressed column stream (?rg_lo/?rg_hi export a re-based range)
//	GET    /v1/columns/{name}/vectors/{i} one encoded vector as a standalone envelope
//	GET    /metrics                      codec + service counters, latency quantiles, per-column stats (JSON, sorted keys)
//	GET    /metrics.prom                 the same snapshot in Prometheus text exposition format
//	GET    /v1/metrics/history           range-query the self-telemetry history store (404 when the recorder is off)
//	GET    /healthz                      liveness: 200 whenever the process answers HTTP
//	GET    /readyz                       readiness: 200 while accepting work, 503 while draining
//
// Observability: every admitted request carries a request ID — taken
// from the X-Alp-Request-Id header, generated when absent, and echoed
// back on the response — and an obs.Trace threaded through the request
// context, so the engine and codec layers attribute their time to
// per-request spans (admission, registry, read, encode, engine,
// write). Each endpoint lands one sample in a log-bucketed latency
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
// Fold order: /agg and /count run one engine call that folds each
// row-group from a fresh accumulator in position order; the merged
// answer adds those partials in row-group order, and partials mode
// returns them as they are. The answer is therefore bit-identical
// (Float64bits) to the in-process engine.FilterAgg, to alp.Column's
// AggRange and to a coordinator merging the same partials from several
// backends. ?threads= (default 1, at most 64) is a per-request speed
// hint only; it never changes a result.
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
	"github.com/goalp/alp/internal/vector"
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

// Server is the HTTP column service. Create with New, mount Handler,
// and call Shutdown to drain.
type Server struct {
	opts Options
	reg  *Registry
	mux  *http.ServeMux
	sem  chan struct{}

	gate drainGate

	// logMu serializes access-log and slow-query-log writes.
	logMu sync.Mutex

	// testHook, when non-nil, runs inside scan/agg handlers after
	// admission — tests use it to hold a request in flight.
	testHook func()
}

// New returns a Server ready to mount.
func New(opts Options) *Server {
	s := &Server{
		opts: opts.withDefaults(),
		reg:  NewRegistry(),
	}
	s.sem = make(chan struct{}, s.opts.MaxConcurrent)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/columns/{name}", s.wrap(obs.HistIngest, s.handleIngest))
	s.mux.HandleFunc("GET /v1/columns", s.wrap(obs.HistMeta, s.handleList))
	s.mux.HandleFunc("GET /v1/columns/{name}", s.wrap(obs.HistMeta, s.handleInfo))
	s.mux.HandleFunc("DELETE /v1/columns/{name}", s.wrap(obs.HistMeta, s.handleDelete))
	s.mux.HandleFunc("GET /v1/columns/{name}/agg", s.wrap(obs.HistAgg, s.handleAgg))
	s.mux.HandleFunc("GET /v1/columns/{name}/count", s.wrap(obs.HistCount, s.handleCount))
	s.mux.HandleFunc("GET /v1/columns/{name}/scan", s.wrap(obs.HistScan, s.handleScan))
	s.mux.HandleFunc("GET /v1/columns/{name}/data", s.wrap(obs.HistData, s.handleData))
	s.mux.HandleFunc("GET /v1/columns/{name}/vectors/{i}", s.wrap(obs.HistVectors, s.handleVector))
	s.mux.HandleFunc("GET /v1/metrics/history", s.wrap(obs.HistHistory, s.handleHistory))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)          // never shed: always observable
	s.mux.HandleFunc("GET /metrics.prom", s.handleMetricsProm) // never shed, same contract
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the column registry (for embedding the server in a
// process that also loads columns directly).
func (s *Server) Registry() *Registry { return s.reg }

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
// latency histogram, and a structured log line when logging is on.
func (s *Server) wrap(ep obs.HistID, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
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
		// latency sample and the log line all land even when a handler
		// aborts the connection with http.ErrAbortHandler.
		defer func() {
			dur := time.Since(start)
			o.ServerBytesOut(cw.n)
			o.Observe(ep, dur.Nanoseconds())
			s.logRequest(r, tr, cw, dur)
		}()
		h(cw, r.WithContext(ctx))
	}
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

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// getColumn resolves {name} to a stored column or writes a 404. The
// lookup is attributed to the request's registry span.
func (s *Server) getColumn(w http.ResponseWriter, r *http.Request) (*storedColumn, bool) {
	tr := obs.TraceFrom(r.Context())
	var start time.Time
	if tr != nil {
		start = time.Now()
	}
	name := r.PathValue("name")
	sc, ok := s.reg.Get(name)
	tr.AddSince(obs.SpanRegistry, start)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("no column %q", name))
		return nil, false
	}
	return sc, true
}

// ---- predicate parsing ----

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
	apply := func(key string, build func(x float64) engine.Predicate) error {
		for _, val := range q[key] {
			x, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return fmt.Errorf("parameter %q: %v", key, err)
			}
			c := build(x)
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
		return nil
	}
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
		if err := apply(b.key, b.build); err != nil {
			return p, err
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
		return 0, fmt.Errorf("threads must be an integer in [1, %d]", maxThreads)
	}
	return t, nil
}

// ---- handlers ----

// columnInfo is the JSON shape of GET /v1/columns/{name} and the
// ingest response. Float fields ride as strings formatted with
// strconv 'g'/-1, which round-trips every finite float64 exactly.
type columnInfo struct {
	Name            string  `json:"name"`
	Values          int     `json:"values"`
	NumVectors      int     `json:"num_vectors"`
	NumRowGroups    int     `json:"num_row_groups"`
	CompressedBytes int     `json:"compressed_bytes"`
	BitsPerValue    float64 `json:"bits_per_value"`
	Exceptions      int     `json:"exceptions"`
	UsedRD          bool    `json:"used_rd"`
}

func infoFor(sc *storedColumn) columnInfo {
	return columnInfo{
		Name:            sc.name,
		Values:          sc.col.N,
		NumVectors:      sc.col.NumVectors(),
		NumRowGroups:    len(sc.col.RowGroups),
		CompressedBytes: len(sc.data),
		BitsPerValue:    sc.col.BitsPerValue(),
		Exceptions:      sc.col.Exceptions(),
		UsedRD:          sc.col.UsedRD(),
	}
}

// handleIngest streams the request body — little-endian float64s —
// into a parallel Writer: full row-groups are encoded by the bounded
// pool while the body is still arriving, so ingest memory stays
// bounded at workers+1 raw row-groups regardless of column size.
// CompressedContentType marks a request or response body holding a
// marshaled ALP column stream rather than raw float64s. Ingesting it
// skips the encoder entirely — the path rebalancing moves compressed
// row-group ranges over.
const CompressedContentType = "application/x-alp-column"

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := validateName(name); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if ct := r.Header.Get("Content-Type"); ct == CompressedContentType {
		s.ingestCompressed(w, r, name)
		return
	}
	o := obs.Active()
	tr := obs.TraceFrom(r.Context())
	readStart := time.Now()
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
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
		if err := r.Context().Err(); err != nil {
			httpError(w, http.StatusRequestTimeout, "ingest deadline exceeded")
			return
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
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				httpError(w, http.StatusRequestEntityTooLarge,
					fmt.Sprintf("body exceeds %d-byte cap", s.opts.MaxBodyBytes))
				return
			}
			// The per-request read deadline set in wrap surfaces a
			// stalled (trickling) body as a deadline error here.
			if errors.Is(err, os.ErrDeadlineExceeded) {
				httpError(w, http.StatusRequestTimeout, "ingest deadline exceeded")
				return
			}
			httpError(w, http.StatusBadRequest, "reading body: "+err.Error())
			return
		}
	}
	if rem != 0 {
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("body length not a multiple of 8 (%d trailing bytes)", rem))
		return
	}
	// Span accounting: the read loop above overlaps the Writer's encode
	// pool, so SpanRead is "time to drain the body" and SpanEncode is
	// only the tail the encoder still owed when the body ended.
	tr.AddSince(obs.SpanRead, readStart)
	o.ServerBytesIn(total)
	encStart := time.Now()
	data := wr.Close()
	tr.AddSince(obs.SpanEncode, encStart)
	regStart := time.Now()
	sc, err := s.reg.Put(name, data)
	tr.AddSince(obs.SpanRegistry, regStart)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, infoFor(sc))
}

// ingestCompressed stores an already-marshaled column stream verbatim
// (Content-Type application/x-alp-column). The registry's Put
// validates the stream before the swap, so a corrupt body never
// replaces a good column.
func (s *Server) ingestCompressed(w http.ResponseWriter, r *http.Request, name string) {
	tr := obs.TraceFrom(r.Context())
	readStart := time.Now()
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	tr.AddSince(obs.SpanRead, readStart)
	if err != nil {
		var mbe *http.MaxBytesError
		switch {
		case errors.As(err, &mbe):
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("body exceeds %d-byte cap", s.opts.MaxBodyBytes))
		case errors.Is(err, os.ErrDeadlineExceeded), r.Context().Err() != nil:
			httpError(w, http.StatusRequestTimeout, "ingest deadline exceeded")
		default:
			httpError(w, http.StatusBadRequest, "reading body: "+err.Error())
		}
		return
	}
	obs.Active().ServerBytesIn(int64(len(data)))
	regStart := time.Now()
	sc, err := s.reg.Put(name, data)
	tr.AddSince(obs.SpanRegistry, regStart)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, infoFor(sc))
}

func validateName(name string) error {
	if name == "" || len(name) > 128 {
		return errors.New("column name must be 1..128 bytes")
	}
	if strings.ContainsAny(name, "/\\ \t\n") {
		return errors.New("column name must not contain slashes or whitespace")
	}
	return nil
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"columns": s.reg.Names()})
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	sc, ok := s.getColumn(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, infoFor(sc))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.reg.Delete(name) {
		httpError(w, http.StatusNotFound, fmt.Sprintf("no column %q", name))
		return
	}
	w.WriteHeader(http.StatusNoContent)
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
			return nil, fmt.Errorf("rgs entries must be row-group indexes in [0, %d)", numRG)
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
			return 0, 0, false, fmt.Errorf("rg_lo must be an integer")
		}
		ranged = true
	}
	if v := q.Get("rg_hi"); v != "" {
		if hi, err = strconv.Atoi(v); err != nil {
			return 0, 0, false, fmt.Errorf("rg_hi must be an integer")
		}
		ranged = true
	}
	if ranged && (lo < 0 || hi < lo || hi >= numRG) {
		return 0, 0, false, fmt.Errorf("row-group range [%d, %d] out of [0, %d)", lo, hi, numRG)
	}
	return lo, hi, ranged, nil
}

// aggPartialWire is one row-group's partial aggregate in the
// partials=rowgroups response; float fields use the same exact 'g'/-1
// encoding as aggResponse so merging coordinators round-trip bits.
type aggPartialWire struct {
	Sum   string `json:"sum"`
	Count int64  `json:"count"`
	Min   string `json:"min"`
	Max   string `json:"max"`
}

// aggQuery parses what /agg and /count share: the predicate, the
// ?threads= hint and, with ?partials=rowgroups, the ?rgs= subset of the
// column's rowGroups. It writes the 400 itself and returns ok=false on
// a bad parameter.
func aggQuery(w http.ResponseWriter, q url.Values, rowGroups int) (pred engine.Predicate, threads int, partials bool, idxs []int, ok bool) {
	pred, err := parsePredicate(q)
	if err == nil {
		threads, err = parseThreads(q)
	}
	partials = q.Get("partials") == "rowgroups"
	if err == nil && partials {
		idxs, err = parseRowGroups(q, rowGroups)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return pred, 0, false, nil, false
	}
	return pred, threads, partials, idxs, true
}

// handleAgg answers both modes from one engine call: the per-row-group
// partials, either returned as they are (?partials=rowgroups) or merged
// in row-group order — the fold order that makes the answer the same
// at any ?threads= and through a coordinator.
func (s *Server) handleAgg(w http.ResponseWriter, r *http.Request) {
	sc, ok := s.getColumn(w, r)
	if !ok {
		return
	}
	pred, threads, partials, idxs, ok := aggQuery(w, r.URL.Query(), len(sc.col.RowGroups))
	if !ok {
		return
	}
	if s.testHook != nil {
		s.testHook()
	}
	start := time.Now()
	parts, touched := sc.rel.FilterAggPartials(threads, pred, idxs)
	obs.TraceFrom(r.Context()).AddSince(obs.SpanEngine, start)
	obs.Active().ServerScanned()
	if partials {
		wire := make([]aggPartialWire, len(parts))
		for i, a := range parts {
			wire[i] = aggPartialWire{
				Sum:   fmtFloat(a.Sum),
				Count: a.Count,
				Min:   fmtFloat(a.Min),
				Max:   fmtFloat(a.Max),
			}
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"rowgroups": wire, "touched": touched, "threads": threads,
		})
		return
	}
	agg := engine.MergeAggs(parts)
	writeJSON(w, http.StatusOK, aggResponse{
		Sum:     fmtFloat(agg.Sum),
		Count:   agg.Count,
		Min:     fmtFloat(agg.Min),
		Max:     fmtFloat(agg.Max),
		Touched: touched,
		Threads: threads,
	})
}

// handleCount mirrors handleAgg for COUNT(*): one engine call for the
// per-row-group counts, returned as they are or summed.
func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) {
	sc, ok := s.getColumn(w, r)
	if !ok {
		return
	}
	pred, threads, partials, idxs, ok := aggQuery(w, r.URL.Query(), len(sc.col.RowGroups))
	if !ok {
		return
	}
	start := time.Now()
	counts := sc.rel.FilterCountPartials(threads, pred, idxs)
	obs.TraceFrom(r.Context()).AddSince(obs.SpanEngine, start)
	obs.Active().ServerScanned()
	if partials {
		writeJSON(w, http.StatusOK, map[string]any{"rowgroups": counts, "threads": threads})
		return
	}
	var count int64
	for _, c := range counts {
		count += c
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": count, "threads": threads})
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
// order, evaluating the predicate with zone-map skipping plus the
// encoded-domain kernel vector-at-a-time. The wire encoding is
// negotiated: `Accept: application/x-alp-scan` selects the framed
// selection-aware stream (compressed per-vector payloads the client
// decodes with the fused kernels); anything else gets the original raw
// little-endian float64 body. Either way the response is produced
// incrementally — a scan of a huge column never materializes more than
// one vector — and completion is framed by the ScanRowsTrailer; if the
// deadline fires or a write fails mid-stream the connection is aborted
// so the client sees a transport error, never a silently short 200.
func (s *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	sc, ok := s.getColumn(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	pred, err := parsePredicate(q)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	rgLo, rgHi, _, err := parseRowGroupRange(q, len(sc.col.RowGroups))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	// An empty column has no row-groups: the range stays empty and the
	// scan answers zero rows.
	vecLo, vecHi := 0, 0
	if len(sc.col.RowGroups) > 0 {
		vecLo = rgLo * vector.RowGroupVectors
		vecHi = rgHi*vector.RowGroupVectors + vector.VectorsIn(sc.col.RowGroups[rgHi].N)
	}
	if s.testHook != nil {
		s.testHook()
	}
	if scanAcceptsCompressed(r.Header.Get("Accept")) {
		s.serveScanStream(w, r, sc, pred, vecLo, vecHi)
		return
	}
	w.Header().Set("Trailer", ScanRowsTrailer)
	w.Header().Set("Content-Type", "application/x-alp-f64le")
	w.Header().Set("X-Alp-Column-Values", strconv.Itoa(sc.col.N))
	var sel [format.SelWords]uint64
	out := make([]float64, vector.Size)
	scratch := make([]int64, vector.Size)
	raw := make([]byte, vector.Size*8)
	col := sc.col
	skipped, rows := 0, 0
	o := obs.Active()
	tr := obs.TraceFrom(r.Context())
	timed := o != nil || tr != nil
	var engineNs, writeNs int64
	var batch obs.ScanBatch
	defer func() {
		// Runs on the abort panic too, so counters stay coherent.
		o.VectorsSkipped(skipped)
		o.FlushScanBatch(&batch)
		o.ServerScanned()
		tr.Add(obs.SpanEngine, engineNs)
		tr.Add(obs.SpanWrite, writeNs)
	}()
	var t0 time.Time
	for i := vecLo; i < vecHi; i++ {
		if r.Context().Err() != nil {
			// Deadline (or client gone) mid-stream: tear the connection
			// down instead of ending the body cleanly, so the truncation
			// is a transport error the client can see and retry.
			panic(http.ErrAbortHandler)
		}
		if col.Zones != nil && !col.Zones.MayContain(i, pred.Lo, pred.Hi) {
			skipped++
			continue
		}
		if timed {
			t0 = time.Now()
		}
		n, pd := col.FilterGatherVector(i, pred.Lo, pred.Hi, sel[:], out, scratch)
		batch.Vector(n, pd)
		if timed {
			engineNs += time.Since(t0).Nanoseconds()
		}
		if n == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			binary.LittleEndian.PutUint64(raw[j*8:], math.Float64bits(out[j]))
		}
		if timed {
			t0 = time.Now()
		}
		if _, err := w.Write(raw[:n*8]); err != nil {
			panic(http.ErrAbortHandler)
		}
		if timed {
			ns := time.Since(t0).Nanoseconds()
			writeNs += ns
			o.Observe(obs.HistStageHTTPWrite, ns)
		}
		rows += n
	}
	w.Header().Set(ScanRowsTrailer, strconv.Itoa(rows))
}

// serveScanStream is the negotiated compressed scan path: one wire
// frame per qualifying vector, each the cheapest of the stored
// envelope + selection bitmap, a re-packed ALP vector of the selected
// rows, or raw float64s (format.ScanWriter decides by exact byte
// size). The stream header goes out before the first frame; abort
// semantics and the row-count trailer match the raw path.
func (s *Server) serveScanStream(w http.ResponseWriter, r *http.Request, sc *storedColumn, pred engine.Predicate, vecLo, vecHi int) {
	w.Header().Set("Trailer", ScanRowsTrailer)
	w.Header().Set("Content-Type", format.ScanContentType)
	w.Header().Set("X-Alp-Column-Values", strconv.Itoa(sc.col.N))
	col := sc.col
	sw := format.NewScanWriter(col)
	skipped, rows := 0, 0
	o := obs.Active()
	tr := obs.TraceFrom(r.Context())
	timed := o != nil || tr != nil
	var engineNs, writeNs int64
	var batch obs.ScanBatch
	var dense, repacked, raw, bytesSaved int64
	defer func() {
		// Runs on the abort panic too, so counters stay coherent.
		o.VectorsSkipped(skipped)
		o.FlushScanBatch(&batch)
		o.ScanFrames(dense, repacked, raw, bytesSaved)
		o.ServerScanned()
		tr.Add(obs.SpanEngine, engineNs)
		tr.Add(obs.SpanWrite, writeNs)
	}()
	if _, err := w.Write(format.AppendScanStreamHeader(nil)); err != nil {
		panic(http.ErrAbortHandler)
	}
	var t0 time.Time
	for i := vecLo; i < vecHi; i++ {
		if r.Context().Err() != nil {
			panic(http.ErrAbortHandler)
		}
		if col.Zones != nil && !col.Zones.MayContain(i, pred.Lo, pred.Hi) {
			skipped++
			continue
		}
		if timed {
			t0 = time.Now()
		}
		frame, n, kind, pd := sw.Frame(i, pred.Lo, pred.Hi)
		if timed {
			engineNs += time.Since(t0).Nanoseconds()
		}
		batch.Vector(n, pd)
		if n == 0 {
			continue
		}
		switch kind {
		case format.ScanFrameDense:
			dense++
		case format.ScanFrameRepacked:
			repacked++
		default:
			raw++
		}
		bytesSaved += int64(8*n - len(frame))
		if timed {
			t0 = time.Now()
		}
		if _, err := w.Write(frame); err != nil {
			panic(http.ErrAbortHandler)
		}
		if timed {
			ns := time.Since(t0).Nanoseconds()
			writeNs += ns
			o.Observe(obs.HistStageHTTPWrite, ns)
		}
		rows += n
	}
	w.Header().Set(ScanRowsTrailer, strconv.Itoa(rows))
}

// handleData serves the column's compressed stream: the full registry
// bytes verbatim by default (the cheapest possible export), or — with
// ?rg_lo/?rg_hi — a standalone re-based column holding just that
// row-group range, the raw-export half of the cluster rebalance path.
func (s *Server) handleData(w http.ResponseWriter, r *http.Request) {
	sc, ok := s.getColumn(w, r)
	if !ok {
		return
	}
	rgLo, rgHi, ranged, err := parseRowGroupRange(r.URL.Query(), len(sc.col.RowGroups))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	w.Header().Set("Content-Type", CompressedContentType)
	if !ranged {
		w.Header().Set("X-Alp-Column-Values", strconv.Itoa(sc.col.N))
		w.Write(sc.data)
		return
	}
	sl, err := format.SliceColumn(sc.col, rgLo, rgHi)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	w.Header().Set("X-Alp-Column-Values", strconv.Itoa(sl.N))
	w.Write(sl.Marshal())
}

// handleVector ships one encoded vector as a standalone envelope; the
// server never decodes it.
func (s *Server) handleVector(w http.ResponseWriter, r *http.Request) {
	sc, ok := s.getColumn(w, r)
	if !ok {
		return
	}
	i, err := strconv.Atoi(r.PathValue("i"))
	if err != nil || i < 0 || i >= sc.col.NumVectors() {
		httpError(w, http.StatusNotFound,
			fmt.Sprintf("vector index out of range [0, %d)", sc.col.NumVectors()))
		return
	}
	env, err := sc.col.MarshalVector(i)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/x-alp-vector")
	w.Header().Set("X-Alp-Vector-Values", strconv.Itoa(sc.col.VectorLen(i)))
	w.Write(env)
}

// handleMetrics serves the codec + service counter snapshot as JSON —
// the same shape alpbench -metrics exposes (counters plus the
// lat_*/stage_* latency-histogram keys), spliced with a "columns"
// object holding per-column registry stats and, when the history
// recorder is on, a "metrics_history" object with its footprint. Keys
// are emitted in sorted order, so two reads of identical state are
// byte-identical — diff-friendly for scrape tooling. Not gated: a
// draining or saturated server must stay observable.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	extras := make([]obs.Extra, 0, 2)
	if cols, err := json.Marshal(s.reg.Stats()); err == nil {
		extras = append(extras, obs.Extra{Name: "columns", JSON: string(cols)})
	}
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
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// handleReady is the readiness probe: it flips to 503 the moment a
// drain starts, so load balancers stop routing new work while
// in-flight requests finish.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.gate.isDraining() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}
