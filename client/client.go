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

// do runs one API call with retries. body may be nil; it is replayed
// from the byte slice on every attempt. accept, when non-empty, is sent
// as the Accept header on every attempt (content negotiation, e.g. the
// compressed scan stream). The response body bytes are returned for
// 2xx responses.
func (c *Client) do(ctx context.Context, method, path string, query url.Values, body []byte, contentType, accept string) ([]byte, http.Header, error) {
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
	var lastErr error
	for attempt := 0; ; attempt++ {
		c.attempts.Add(1)
		if attempt > 0 {
			c.retries.Add(1)
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, u, rd)
		if err != nil {
			return nil, nil, err
		}
		req.Header.Set(RequestIDHeader, reqID)
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := c.hc.Do(req)
		var wait time.Duration
		switch {
		case err != nil:
			// Transport error. Context cancellation is terminal; the
			// rest (refused connections, resets) retry.
			if ctx.Err() != nil {
				return nil, nil, ctx.Err()
			}
			c.transport.Add(1)
			lastErr = err
			wait = c.delay(attempt, "")
		default:
			payload, readErr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if readErr != nil {
				if ctx.Err() != nil {
					return nil, nil, ctx.Err()
				}
				c.transport.Add(1)
				lastErr = readErr
				wait = c.delay(attempt, "")
				break
			}
			if resp.StatusCode >= 200 && resp.StatusCode < 300 {
				// Trailers are populated once the body has been read to
				// EOF; fold them into the returned headers so callers can
				// verify stream-completion markers (see Scan).
				hdr := resp.Header
				if len(resp.Trailer) > 0 {
					hdr = hdr.Clone()
					for k, vs := range resp.Trailer {
						hdr[k] = vs
					}
				}
				return payload, hdr, nil
			}
			if resp.StatusCode == http.StatusTooManyRequests {
				c.shed.Add(1)
			} else if resp.StatusCode >= 500 {
				c.serverErr.Add(1)
			}
			apiErr := &APIError{Status: resp.StatusCode, Message: errMessage(payload)}
			if !retryable(resp.StatusCode) {
				return nil, nil, apiErr
			}
			lastErr = apiErr
			wait = c.delay(attempt, resp.Header.Get("Retry-After"))
		}
		if attempt >= c.retryLimit {
			return nil, nil, fmt.Errorf("alpserved: giving up after %d attempts: %w", attempt+1, lastErr)
		}
		slept := time.Now()
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			t.Stop()
			c.backoffNs.Add(time.Since(slept).Nanoseconds())
			return nil, nil, ctx.Err()
		case <-t.C:
			c.backoffNs.Add(time.Since(slept).Nanoseconds())
		}
	}
}

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

type aggWire struct {
	Sum     string `json:"sum"`
	Count   int64  `json:"count"`
	Min     string `json:"min"`
	Max     string `json:"max"`
	Touched int    `json:"touched"`
}

// ---- API methods ----

// Ingest uploads values as a new column (replacing any column of the
// same name) and returns the stored column's shape. The upload is
// retried as a whole on shed load or transport failure.
func (c *Client) Ingest(ctx context.Context, name string, values []float64) (ColumnInfo, error) {
	body := make([]byte, 8*len(values))
	for i, v := range values {
		binary.LittleEndian.PutUint64(body[i*8:], math.Float64bits(v))
	}
	payload, _, err := c.do(ctx, http.MethodPost, "/v1/columns/"+url.PathEscape(name), nil, body, "application/x-alp-f64le", "")
	if err != nil {
		return ColumnInfo{}, err
	}
	var info ColumnInfo
	if err := json.Unmarshal(payload, &info); err != nil {
		return ColumnInfo{}, fmt.Errorf("alpserved: bad ingest response: %w", err)
	}
	return info, nil
}

// Agg runs SELECT SUM, COUNT, MIN, MAX WHERE p server-side with
// encoded-domain pushdown. The server folds each row-group and merges
// the partials in row-group order, so the result is bit-identical to
// evaluating the same predicate in-process over the same values, at
// any thread count.
func (c *Client) Agg(ctx context.Context, name string, p Predicate) (Agg, error) {
	payload, _, err := c.do(ctx, http.MethodGet, "/v1/columns/"+url.PathEscape(name)+"/agg", p.query(), nil, "", "")
	if err != nil {
		return Agg{}, err
	}
	var w aggWire
	if err := json.Unmarshal(payload, &w); err != nil {
		return Agg{}, fmt.Errorf("alpserved: bad agg response: %w", err)
	}
	out := Agg{Count: w.Count, Touched: w.Touched}
	if out.Sum, err = strconv.ParseFloat(w.Sum, 64); err != nil {
		return Agg{}, fmt.Errorf("alpserved: bad agg sum %q", w.Sum)
	}
	if out.Min, err = strconv.ParseFloat(w.Min, 64); err != nil {
		return Agg{}, fmt.Errorf("alpserved: bad agg min %q", w.Min)
	}
	if out.Max, err = strconv.ParseFloat(w.Max, 64); err != nil {
		return Agg{}, fmt.Errorf("alpserved: bad agg max %q", w.Max)
	}
	return out, nil
}

// Count runs SELECT COUNT(*) WHERE p server-side; on pushdown-capable
// vectors no qualifying row is materialized at all.
func (c *Client) Count(ctx context.Context, name string, p Predicate) (int64, error) {
	payload, _, err := c.do(ctx, http.MethodGet, "/v1/columns/"+url.PathEscape(name)+"/count", p.query(), nil, "", "")
	if err != nil {
		return 0, err
	}
	var w struct {
		Count int64 `json:"count"`
	}
	if err := json.Unmarshal(payload, &w); err != nil {
		return 0, fmt.Errorf("alpserved: bad count response: %w", err)
	}
	return w.Count, nil
}

// Scan returns the rows matching p, in position order, filtered
// server-side, bit-identical to filtering the decoded column locally.
// It negotiates the compressed selection-aware stream (Accept:
// application/x-alp-scan): the server ships framed per-vector payloads
// — stored envelopes with selection bitmaps, re-packed ALP vectors, or
// raw float64s, whichever is smallest — and the client decodes them
// with the fused unpack+gather kernels, so wire bytes track compressed
// size rather than 8 bytes per row. A server that does not speak the
// compressed encoding answers with raw float64s, which decode the same
// way ScanRaw does. Either way the server frames completion with a
// trailing row count (written only when the scan ran to the end) and
// aborts the connection if its deadline fires mid-stream, so a
// truncated or corrupted response surfaces as an error here — never as
// a silently partial result.
func (c *Client) Scan(ctx context.Context, name string, p Predicate) ([]float64, error) {
	return c.scan(ctx, name, p, alp.ScanStreamContentType)
}

// ScanRaw runs the same server-side filtered scan over the original
// uncompressed wire encoding: raw little-endian float64s, one per
// selected row. It exists for old servers and as the differential
// comparand for the compressed stream.
func (c *Client) ScanRaw(ctx context.Context, name string, p Predicate) ([]float64, error) {
	return c.scan(ctx, name, p, "")
}

func (c *Client) scan(ctx context.Context, name string, p Predicate, accept string) ([]float64, error) {
	payload, hdr, err := c.do(ctx, http.MethodGet, "/v1/columns/"+url.PathEscape(name)+"/scan", p.query(), nil, "", accept)
	if err != nil {
		return nil, err
	}
	var out []float64
	// The response Content-Type — not the request Accept — decides the
	// decoder, so a server that ignores the negotiation still decodes
	// correctly.
	if ct := hdr.Get("Content-Type"); ct == alp.ScanStreamContentType {
		if out, err = alp.DecodeScanStream(payload); err != nil {
			return nil, fmt.Errorf("alpserved: scan stream: %w", err)
		}
	} else if out, err = decodeF64LE(payload); err != nil {
		return nil, err
	}
	rows := hdr.Get("X-Alp-Scan-Rows")
	if rows == "" {
		return nil, errors.New("alpserved: scan response truncated (no completion trailer)")
	}
	if n, err := strconv.Atoi(rows); err != nil || n != len(out) {
		return nil, fmt.Errorf("alpserved: scan returned %d rows, server sent %s", len(out), rows)
	}
	return out, nil
}

// Compressed fetches the column's full ALP stream — the bytes the
// server stores, usable with alp.Open / alp.Decode.
func (c *Client) Compressed(ctx context.Context, name string) ([]byte, error) {
	payload, _, err := c.do(ctx, http.MethodGet, "/v1/columns/"+url.PathEscape(name)+"/data", nil, nil, "", "")
	return payload, err
}

// Values fetches the column in compressed form and decodes it locally:
// the wire carries ALP-encoded bytes (typically a fraction of the raw
// size), never decoded floats.
func (c *Client) Values(ctx context.Context, name string) ([]float64, error) {
	data, err := c.Compressed(ctx, name)
	if err != nil {
		return nil, err
	}
	return alp.Decode(data)
}

// Vector fetches one encoded vector and decodes it locally. The server
// ships the vector's packed payload verbatim.
func (c *Client) Vector(ctx context.Context, name string, i int) ([]float64, error) {
	payload, _, err := c.do(ctx, http.MethodGet,
		"/v1/columns/"+url.PathEscape(name)+"/vectors/"+strconv.Itoa(i), nil, nil, "", "")
	if err != nil {
		return nil, err
	}
	dst := make([]float64, alp.VectorSize)
	n, err := alp.DecodeEncodedVector(payload, dst)
	if err != nil {
		return nil, err
	}
	return dst[:n], nil
}

// Info fetches the column's shape.
func (c *Client) Info(ctx context.Context, name string) (ColumnInfo, error) {
	payload, _, err := c.do(ctx, http.MethodGet, "/v1/columns/"+url.PathEscape(name), nil, nil, "", "")
	if err != nil {
		return ColumnInfo{}, err
	}
	var info ColumnInfo
	if err := json.Unmarshal(payload, &info); err != nil {
		return ColumnInfo{}, fmt.Errorf("alpserved: bad info response: %w", err)
	}
	return info, nil
}

// List returns the names of the served columns.
func (c *Client) List(ctx context.Context) ([]string, error) {
	payload, _, err := c.do(ctx, http.MethodGet, "/v1/columns", nil, nil, "", "")
	if err != nil {
		return nil, err
	}
	var w struct {
		Columns []string `json:"columns"`
	}
	if err := json.Unmarshal(payload, &w); err != nil {
		return nil, fmt.Errorf("alpserved: bad list response: %w", err)
	}
	return w.Columns, nil
}

// Delete drops a column.
func (c *Client) Delete(ctx context.Context, name string) error {
	_, _, err := c.do(ctx, http.MethodDelete, "/v1/columns/"+url.PathEscape(name), nil, nil, "", "")
	return err
}

// Metrics fetches the server's counter snapshot (the /metrics JSON) as
// a name -> value map; bit_width_hist is omitted.
func (c *Client) Metrics(ctx context.Context) (map[string]int64, error) {
	payload, _, err := c.do(ctx, http.MethodGet, "/metrics", nil, nil, "", "")
	if err != nil {
		return nil, err
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(payload, &raw); err != nil {
		return nil, fmt.Errorf("alpserved: bad metrics response: %w", err)
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

func decodeF64LE(payload []byte) ([]float64, error) {
	if len(payload)%8 != 0 {
		return nil, errors.New("alpserved: scan payload not a multiple of 8 bytes")
	}
	out := make([]float64, len(payload)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[i*8:]))
	}
	return out, nil
}
