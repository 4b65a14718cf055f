// Package client is the typed Go client for alpserved, the ALP
// compressed-column service. It speaks the service's HTTP API with a
// retry policy tuned to the server's load-shedding behavior: 429s
// (shed load) and 503s (draining) honor Retry-After, other 5xx and
// transport errors back off exponentially with jitter, and every
// attempt propagates the caller's context. Columns can be queried
// server-side (Agg, Count, Scan) or shipped in their encoded form and
// decoded locally (Values, Vector) — the thin-client path where the
// server never converts integers back to floats.
package client

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"github.com/goalp/alp"
	"github.com/goalp/alp/internal/obs"
)

// Client talks to one alpserved base URL. It is safe for concurrent
// use.
type Client struct {
	base       string
	hc         *http.Client
	retryLimit int
	backoff    time.Duration
	maxWait    time.Duration

	rngMu sync.Mutex
	rng   *rand.Rand

	// Retry-behavior counters, read via Stats.
	calls     atomic.Int64
	attempts  atomic.Int64
	retries   atomic.Int64
	shed      atomic.Int64
	serverErr atomic.Int64
	transport atomic.Int64
	backoffNs atomic.Int64
}

// RequestIDHeader is the header carrying the request ID the client
// attaches to every attempt of a call (all retries of one call share
// an ID, so server-side access-log lines correlate). A call made with
// a context that carries a served request's trace reuses that
// request's ID. The server echoes the effective ID back on the
// response.
const RequestIDHeader = "X-Alp-Request-Id"

// Stats is a point-in-time snapshot of the client's retry behavior —
// the consumer-side view of the server's load shedding.
type Stats struct {
	// Calls is the number of API calls issued (one per do, however many
	// attempts each took).
	Calls int64
	// Attempts is the number of HTTP attempts, including first tries.
	Attempts int64
	// Retries is the number of attempts beyond each call's first.
	Retries int64
	// Shed counts 429 (shed load) responses.
	Shed int64
	// ServerErrors counts 5xx responses (including 503 draining).
	ServerErrors int64
	// TransportErrors counts attempts that failed below HTTP (refused
	// connections, resets, truncated bodies).
	TransportErrors int64
	// BackoffNs is the total time spent sleeping between attempts, in
	// nanoseconds.
	BackoffNs int64
}

// Stats returns the client's cumulative retry counters. Safe to call
// concurrently with in-flight requests; the fields are read
// individually, so a snapshot taken mid-call may be slightly torn.
func (c *Client) Stats() Stats {
	return Stats{
		Calls:           c.calls.Load(),
		Attempts:        c.attempts.Load(),
		Retries:         c.retries.Load(),
		Shed:            c.shed.Load(),
		ServerErrors:    c.serverErr.Load(),
		TransportErrors: c.transport.Load(),
		BackoffNs:       c.backoffNs.Load(),
	}
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetries sets how many times a retryable failure is retried
// (default 4; 0 disables retries).
func WithRetries(n int) Option { return func(c *Client) { c.retryLimit = n } }

// WithBackoff sets the base and cap of the exponential backoff
// schedule (defaults 50ms base, 2s cap). Jitter of up to half the
// computed delay is added so synchronized clients do not retry in
// lockstep.
func WithBackoff(base, max time.Duration) Option {
	return func(c *Client) { c.backoff = base; c.maxWait = max }
}

// New returns a client for the service at baseURL (e.g.
// "http://127.0.0.1:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:       strings.TrimRight(baseURL, "/"),
		hc:         &http.Client{},
		retryLimit: 4,
		backoff:    50 * time.Millisecond,
		maxWait:    2 * time.Second,
		rng:        rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// APIError is a non-2xx response from the service.
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("alpserved: %d %s: %s", e.Status, http.StatusText(e.Status), e.Message)
}

// retryable reports whether a response status is worth retrying: shed
// load, draining, and transient upstream failures.
func retryable(status int) bool {
	switch status {
	case http.StatusTooManyRequests,
		http.StatusServiceUnavailable,
		http.StatusInternalServerError,
		http.StatusBadGateway,
		http.StatusGatewayTimeout:
		return true
	}
	return false
}

// bodyPool holds the buffers response bodies are read into, so a
// client reading one scan after another stops growing a fresh buffer
// for each.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody is the largest buffer that goes back to bodyPool; one
// that grew past it for an outsized answer is left to the collector.
const maxPooledBody = 16 << 20

// do runs one API call with retries. body may be nil; it is replayed
// from the byte slice on every attempt, and is not read once do has
// returned. A 2xx response's body and headers (trailers included) go to
// parse, when non-nil, whose error do returns; the body is a pooled
// buffer, valid only until parse returns.
func (c *Client) do(ctx context.Context, method, path string, query url.Values, body []byte, contentType string, parse func(payload []byte, hdr http.Header) error) error {
	u := c.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	c.calls.Add(1)
	// A call made while serving a traced request (a coordinator's
	// backend call) carries that request's ID, so every process it
	// crosses logs it under one ID.
	reqID := obs.NewRequestID()
	if tr := obs.TraceFrom(ctx); tr != nil {
		reqID = tr.ID
	}
	var lent *lentBody
	if len(body) > 0 {
		lent = &lentBody{data: body}
		defer lent.end()
	}
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			bodyPool.Put(buf)
		}
	}()
	var lastErr error
	for attempt := 0; ; attempt++ {
		c.attempts.Add(1)
		if attempt > 0 {
			c.retries.Add(1)
		}
		req, err := http.NewRequestWithContext(ctx, method, u, nil)
		if err != nil {
			return err
		}
		if lent != nil {
			req.Body = lent.reader()
			req.GetBody = func() (io.ReadCloser, error) { return lent.reader(), nil }
			req.ContentLength = int64(len(body))
		}
		req.Header.Set(RequestIDHeader, reqID)
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := c.hc.Do(req)
		var wait time.Duration
		switch {
		case err != nil:
			// Transport error. Context cancellation is terminal; the
			// rest (refused connections, resets) retry.
			if ctx.Err() != nil {
				return ctx.Err()
			}
			c.transport.Add(1)
			lastErr = err
			wait = c.delay(attempt, "")
		default:
			buf.Reset()
			_, readErr := buf.ReadFrom(resp.Body)
			resp.Body.Close()
			if readErr != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				c.transport.Add(1)
				lastErr = readErr
				wait = c.delay(attempt, "")
				break
			}
			if resp.StatusCode >= 200 && resp.StatusCode < 300 {
				if parse == nil {
					return nil
				}
				// Trailers are populated once the body has been read to
				// EOF; fold them into the headers parse sees so it can
				// verify stream-completion markers (see Scan).
				hdr := resp.Header
				if len(resp.Trailer) > 0 {
					hdr = hdr.Clone()
					for k, vs := range resp.Trailer {
						hdr[k] = vs
					}
				}
				return parse(buf.Bytes(), hdr)
			}
			if resp.StatusCode == http.StatusTooManyRequests {
				c.shed.Add(1)
			} else if resp.StatusCode >= 500 {
				c.serverErr.Add(1)
			}
			apiErr := &APIError{Status: resp.StatusCode, Message: errMessage(buf.Bytes())}
			if !retryable(resp.StatusCode) {
				return apiErr
			}
			lastErr = apiErr
			wait = c.delay(attempt, resp.Header.Get("Retry-After"))
		}
		if attempt >= c.retryLimit {
			return fmt.Errorf("alpserved: giving up after %d attempts: %w", attempt+1, lastErr)
		}
		slept := time.Now()
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			t.Stop()
			c.backoffNs.Add(time.Since(slept).Nanoseconds())
			return ctx.Err()
		case <-t.C:
			c.backoffNs.Add(time.Since(slept).Nanoseconds())
		}
	}
}

// lentBody lends a call's non-empty request body to net/http for as
// long as the call runs. The transport may read a request body after Do
// has returned (it goes on writing while an early answer is read, and
// closes bodies asynchronously), so every read goes through the lock,
// and once end has run a read fails without touching the caller's
// memory.
type lentBody struct {
	mu   sync.Mutex
	data []byte // nil once the loan has ended
}

// errBodyEnded is what a request body read after its call returned
// gets.
var errBodyEnded = errors.New("alpserved: request body read after its call returned")

// reader returns a fresh reader over the body, one per attempt.
func (b *lentBody) reader() io.ReadCloser { return &lentReader{b: b} }

// end ends the loan: no read touches the body afterwards.
func (b *lentBody) end() {
	b.mu.Lock()
	b.data = nil
	b.mu.Unlock()
}

type lentReader struct {
	b   *lentBody
	off int
}

func (r *lentReader) Read(p []byte) (int, error) {
	r.b.mu.Lock()
	defer r.b.mu.Unlock()
	if r.b.data == nil {
		return 0, errBodyEnded
	}
	if r.off == len(r.b.data) {
		return 0, io.EOF
	}
	n := copy(p, r.b.data[r.off:])
	r.off += n
	return n, nil
}

func (r *lentReader) Close() error { return nil }

// delay computes the sleep before the next attempt: the server's
// Retry-After when present (still jittered, so a fleet of shed clients
// does not return in lockstep), else exponential backoff, both capped.
func (c *Client) delay(attempt int, retryAfter string) time.Duration {
	// Cap the exponent: past ~20 doublings any real backoff base is far
	// beyond maxWait anyway, and an unclamped shift would overflow into
	// a negative duration on high configured retry counts (50ms << 38
	// wraps), which in turn would panic the jitter draw below.
	if attempt > 20 {
		attempt = 20
	}
	max := c.maxWait
	if max < 0 { // misconfigured: treat as "don't sleep"
		max = 0
	}
	d := c.backoff << uint(attempt)
	if retryAfter != "" {
		if secs, err := strconv.Atoi(retryAfter); err == nil && secs >= 0 {
			d = time.Duration(secs) * time.Second
		}
	}
	if d < 0 || d > max {
		d = max
	}
	c.rngMu.Lock()
	jitter := time.Duration(c.rng.Int63n(int64(d/2 + 1)))
	c.rngMu.Unlock()
	d += jitter
	if d > max {
		d = max
	}
	return d
}

func errMessage(payload []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(payload, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(payload))
}

// ---- predicates ----

// Predicate selects rows server-side. Constructors mirror the engine's
// and reduce to the same closed interval on the server, so a query
// through the client answers exactly like the in-process operators.
// The zero Predicate matches all non-NaN rows.
type Predicate struct {
	params url.Values
}

func pred(key string, x float64) Predicate {
	v := url.Values{}
	v.Set(key, strconv.FormatFloat(x, 'g', -1, 64))
	return Predicate{params: v}
}

// All matches every non-NaN row.
func All() Predicate { return Predicate{} }

// Between matches lo <= v <= hi.
func Between(lo, hi float64) Predicate {
	p := pred("lo", lo)
	p.params.Set("hi", strconv.FormatFloat(hi, 'g', -1, 64))
	return p
}

// GE matches v >= x.
func GE(x float64) Predicate { return pred("ge", x) }

// GT matches v > x.
func GT(x float64) Predicate { return pred("gt", x) }

// LE matches v <= x.
func LE(x float64) Predicate { return pred("le", x) }

// LT matches v < x.
func LT(x float64) Predicate { return pred("lt", x) }

// EQ matches v == x.
func EQ(x float64) Predicate { return pred("eq", x) }

// And intersects two predicates (the server takes the tightest bounds).
func (p Predicate) And(q Predicate) Predicate {
	out := url.Values{}
	for k, vs := range p.params {
		out[k] = vs
	}
	for k, vs := range q.params {
		out[k] = append(out[k], vs...)
	}
	return Predicate{params: out}
}

func (p Predicate) query() url.Values {
	out := url.Values{}
	for k, vs := range p.params {
		out[k] = vs
	}
	return out
}

// ---- API types ----

// ColumnInfo describes one served column.
type ColumnInfo struct {
	Name            string  `json:"name"`
	Values          int     `json:"values"`
	NumVectors      int     `json:"num_vectors"`
	NumRowGroups    int     `json:"num_row_groups"`
	CompressedBytes int     `json:"compressed_bytes"`
	BitsPerValue    float64 `json:"bits_per_value"`
	Exceptions      int     `json:"exceptions"`
	UsedRD          bool    `json:"used_rd"`
}

// Agg carries a filtered aggregate: SUM/COUNT/MIN/MAX of the rows
// matching the predicate, plus the number of vectors whose payload the
// server examined (zone-map-skipped vectors are not touched).
type Agg struct {
	Sum     float64
	Count   int64
	Min     float64
	Max     float64
	Touched int
}

// aggWire is one aggregate of an /agg answer or one of its partials.
// The client reads each float from its exact-bits field, Float64bits as
// 16 hex digits, so a NaN keeps its payload; the shortest-'g' strings
// the server also sends are read only when the bits are absent.
type aggWire struct {
	Sum     string `json:"sum"`
	SumBits string `json:"sum_bits"`
	Count   int64  `json:"count"`
	Min     string `json:"min"`
	MinBits string `json:"min_bits"`
	Max     string `json:"max"`
	MaxBits string `json:"max_bits"`
	Touched int    `json:"touched"`
}

func (w aggWire) decode() (Agg, error) {
	out := Agg{Count: w.Count, Touched: w.Touched}
	var err error
	if out.Sum, err = wireFloat("sum", w.SumBits, w.Sum); err != nil {
		return Agg{}, err
	}
	if out.Min, err = wireFloat("min", w.MinBits, w.Min); err != nil {
		return Agg{}, err
	}
	if out.Max, err = wireFloat("max", w.MaxBits, w.Max); err != nil {
		return Agg{}, err
	}
	return out, nil
}

// wireFloat decodes one float of the agg wire from its bits field, or
// from its 'g' string when the bits are absent.
func wireFloat(field, bits, g string) (float64, error) {
	if bits != "" {
		u, err := strconv.ParseUint(bits, 16, 64)
		if err != nil || len(bits) != 16 {
			return 0, fmt.Errorf("alpserved: bad agg %s_bits %q", field, bits)
		}
		return math.Float64frombits(u), nil
	}
	x, err := strconv.ParseFloat(g, 64)
	if err != nil {
		return 0, fmt.Errorf("alpserved: bad agg %s %q", field, g)
	}
	return x, nil
}

// ---- API methods ----

// nativeLE reports a little-endian host, where a []float64's memory is
// already the raw ingest wire format.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// jsonInto returns a parse step that unmarshals a response body into v;
// what names the body in the error.
func jsonInto(v any, what string) func([]byte, http.Header) error {
	return func(payload []byte, _ http.Header) error {
		if err := json.Unmarshal(payload, v); err != nil {
			return fmt.Errorf("alpserved: bad %s: %w", what, err)
		}
		return nil
	}
}

// cloneInto returns a parse step that keeps an exact-size copy of the
// response body in *dst.
func cloneInto(dst *[]byte) func([]byte, http.Header) error {
	return func(payload []byte, _ http.Header) error {
		*dst = bytes.Clone(payload)
		return nil
	}
}

// Ingest uploads values as a new column (replacing any column of the
// same name) and returns the stored column's shape. The upload is
// retried as a whole on shed load or transport failure. On a
// little-endian host the request body is values' own memory, sent
// without a copy, so values must not change until Ingest returns.
func (c *Client) Ingest(ctx context.Context, name string, values []float64) (ColumnInfo, error) {
	var body []byte
	if nativeLE {
		body = unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(values))), 8*len(values))
	} else {
		body = make([]byte, 8*len(values))
		for i, v := range values {
			binary.LittleEndian.PutUint64(body[i*8:], math.Float64bits(v))
		}
	}
	return c.ingest(ctx, name, body, "application/x-alp-f64le")
}

// ingest posts one column body of the given content type.
func (c *Client) ingest(ctx context.Context, name string, body []byte, contentType string) (ColumnInfo, error) {
	var info ColumnInfo
	err := c.do(ctx, http.MethodPost, "/v1/columns/"+url.PathEscape(name), nil, body, contentType, jsonInto(&info, "ingest response"))
	if err != nil {
		return ColumnInfo{}, err
	}
	return info, nil
}

// Agg runs SELECT SUM, COUNT, MIN, MAX WHERE p server-side with
// encoded-domain pushdown. The server folds each row-group and merges
// the partials in row-group order, so the result is bit-identical to
// evaluating the same predicate in-process over the same values, at
// any thread count.
func (c *Client) Agg(ctx context.Context, name string, p Predicate) (Agg, error) {
	var w aggWire
	if err := c.do(ctx, http.MethodGet, "/v1/columns/"+url.PathEscape(name)+"/agg", p.query(), nil, "", jsonInto(&w, "agg response")); err != nil {
		return Agg{}, err
	}
	return w.decode()
}

// Count runs SELECT COUNT(*) WHERE p server-side; on pushdown-capable
// vectors no qualifying row is materialized at all.
func (c *Client) Count(ctx context.Context, name string, p Predicate) (int64, error) {
	var w struct {
		Count int64 `json:"count"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/columns/"+url.PathEscape(name)+"/count", p.query(), nil, "", jsonInto(&w, "count response")); err != nil {
		return 0, err
	}
	return w.Count, nil
}

// Scan returns the rows matching p, in position order, filtered
// server-side, bit-identical to filtering the decoded column locally.
// The server answers with the ALPS selection-aware stream: framed
// per-vector payloads — stored envelopes with selection bitmaps,
// re-packed ALP vectors, or raw float64s, whichever is smallest — which
// the client decodes with the fused unpack+gather kernels, so wire
// bytes track compressed size rather than 8 bytes per row. The body is
// read into a reused buffer and every frame decodes straight into the
// one result, sized from the frame headers. The server frames
// completion with a trailing row count (written only when the scan ran
// to the end) and aborts the connection if its deadline fires
// mid-stream, so a truncated or corrupted response — or a body that is
// not an ALPS stream at all — surfaces as an error here, never as a
// silently partial result.
func (c *Client) Scan(ctx context.Context, name string, p Predicate) ([]float64, error) {
	var out []float64
	err := c.scan(ctx, name, p, -1, -1, func(stream []byte, rows int) error {
		var err error
		if out, err = alp.DecodeScanStream(stream); err != nil {
			return fmt.Errorf("alpserved: scan stream: %w", err)
		}
		if len(out) != rows {
			return fmt.Errorf("alpserved: scan returned %d rows, server sent %d", len(out), rows)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Compressed fetches the column's full ALP stream — the bytes the
// server stores, usable with alp.Open / alp.Decode.
func (c *Client) Compressed(ctx context.Context, name string) ([]byte, error) {
	var data []byte
	err := c.do(ctx, http.MethodGet, "/v1/columns/"+url.PathEscape(name)+"/data", nil, nil, "", cloneInto(&data))
	return data, err
}

// Values fetches the column in compressed form and decodes it locally:
// the wire carries ALP-encoded bytes (typically a fraction of the raw
// size), never decoded floats.
func (c *Client) Values(ctx context.Context, name string) ([]float64, error) {
	var out []float64
	err := c.do(ctx, http.MethodGet, "/v1/columns/"+url.PathEscape(name)+"/data", nil, nil, "", func(payload []byte, _ http.Header) error {
		var err error
		out, err = alp.Decode(payload)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Vector fetches one encoded vector and decodes it locally. The server
// ships the vector's packed payload verbatim.
func (c *Client) Vector(ctx context.Context, name string, i int) ([]float64, error) {
	dst := make([]float64, alp.VectorSize)
	var n int
	err := c.do(ctx, http.MethodGet, "/v1/columns/"+url.PathEscape(name)+"/vectors/"+strconv.Itoa(i), nil, nil, "",
		func(payload []byte, _ http.Header) error {
			var err error
			n, err = alp.DecodeEncodedVector(payload, dst)
			return err
		})
	if err != nil {
		return nil, err
	}
	return dst[:n], nil
}

// Info fetches the column's shape.
func (c *Client) Info(ctx context.Context, name string) (ColumnInfo, error) {
	var info ColumnInfo
	if err := c.do(ctx, http.MethodGet, "/v1/columns/"+url.PathEscape(name), nil, nil, "", jsonInto(&info, "info response")); err != nil {
		return ColumnInfo{}, err
	}
	return info, nil
}

// List returns the names of the served columns.
func (c *Client) List(ctx context.Context) ([]string, error) {
	var w struct {
		Columns []string `json:"columns"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/columns", nil, nil, "", jsonInto(&w, "list response")); err != nil {
		return nil, err
	}
	return w.Columns, nil
}

// Delete drops a column.
func (c *Client) Delete(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, "/v1/columns/"+url.PathEscape(name), nil, nil, "", nil)
}

// Metrics fetches the server's counter snapshot (the /metrics JSON) as
// a name -> value map; bit_width_hist is omitted.
func (c *Client) Metrics(ctx context.Context) (map[string]int64, error) {
	var raw map[string]json.RawMessage
	if err := c.do(ctx, http.MethodGet, "/metrics", nil, nil, "", jsonInto(&raw, "metrics response")); err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(raw))
	for k, v := range raw {
		var n int64
		if json.Unmarshal(v, &n) == nil {
			out[k] = n
		}
	}
	return out, nil
}

// Health reports whether the server is accepting requests (false while
// draining). It probes the readiness endpoint /readyz — the liveness
// probe /healthz stays 200 during a drain. Unlike other calls it never
// retries.
func (c *Client) Health(ctx context.Context) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/readyz", nil)
	if err != nil {
		return false, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK, nil
}
