// Cluster-facing API methods: per-row-group partial aggregates,
// row-group-ranged scans and compressed exports, and compressed
// ingest. These are the calls a scatter-gather coordinator composes —
// a backend answers for the row-groups it holds, the coordinator maps
// local row-group indexes back to global ones and merges in global
// order — but they are plain API surface, usable by any consumer.
package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
)

// AggPartial is one row-group's partial aggregate from a
// partials=rowgroups query. Sum/Min/Max round-trip bit-exactly through
// the wire's exact-bits fields.
type AggPartial struct {
	Sum   float64
	Count int64
	Min   float64
	Max   float64
}

// CompressedContentType marks a body holding a marshaled ALP column
// stream (mirrors the server's constant; the client must not import
// internal packages).
const CompressedContentType = "application/x-alp-column"

// rgList appends the optional ?rgs= row-group list.
func rgList(q url.Values, rgs []int) url.Values {
	if len(rgs) == 0 {
		return q
	}
	s := make([]byte, 0, len(rgs)*4)
	for i, g := range rgs {
		if i > 0 {
			s = append(s, ',')
		}
		s = strconv.AppendInt(s, int64(g), 10)
	}
	q.Set("rgs", string(s))
	return q
}

// AggPartials runs the filtered aggregate in partials mode: one
// aggregate per row-group, each folded from a fresh accumulator in
// position order, plus the number of vectors the server examined. rgs,
// when non-nil, selects a subset of the column's row-groups
// (server-local indexes); the response is in rgs order.
func (c *Client) AggPartials(ctx context.Context, name string, p Predicate, rgs []int) ([]AggPartial, int, error) {
	q := p.query()
	q.Set("partials", "rowgroups")
	rgList(q, rgs)
	var w struct {
		RowGroups []aggWire `json:"rowgroups"`
		Touched   int       `json:"touched"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/columns/"+url.PathEscape(name)+"/agg", q, nil, "", jsonInto(&w, "agg partials response")); err != nil {
		return nil, 0, err
	}
	out := make([]AggPartial, len(w.RowGroups))
	for i, pw := range w.RowGroups {
		a, err := pw.decode()
		if err != nil {
			return nil, 0, err
		}
		out[i] = AggPartial{Sum: a.Sum, Count: a.Count, Min: a.Min, Max: a.Max}
	}
	return out, w.Touched, nil
}

// CountPartials runs the filtered count in partials mode: one count
// per row-group, rgs selecting a subset as in AggPartials.
func (c *Client) CountPartials(ctx context.Context, name string, p Predicate, rgs []int) ([]int64, error) {
	q := p.query()
	q.Set("partials", "rowgroups")
	rgList(q, rgs)
	var w struct {
		RowGroups []int64 `json:"rowgroups"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/columns/"+url.PathEscape(name)+"/count", q, nil, "", jsonInto(&w, "count partials response")); err != nil {
		return nil, err
	}
	return w.RowGroups, nil
}

// ScanRange fetches the ALPS scan stream of the row-group range
// [rgLo, rgHi] (inclusive, server-local indexes; pass -1, -1 for the
// whole column) without decoding it, returning an exact-size copy of
// the body and the server's completion-trailer row count. Streams of
// consecutive ranges concatenate once the 5-byte stream header of every
// chunk after the first is stripped, which is what a scatter-gather
// coordinator does with them. A response without the completion trailer
// is an error — truncation never passes silently.
func (c *Client) ScanRange(ctx context.Context, name string, p Predicate, rgLo, rgHi int) ([]byte, int, error) {
	var stream []byte
	var n int
	err := c.scan(ctx, name, p, rgLo, rgHi, func(body []byte, rows int) error {
		stream, n = bytes.Clone(body), rows
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return stream, n, nil
}

// scan runs a /scan of the row-group range [rgLo, rgHi] (-1, -1 for
// the whole column) and hands use the stream, valid only until use
// returns, with the row count of the server's completion trailer.
func (c *Client) scan(ctx context.Context, name string, p Predicate, rgLo, rgHi int, use func(stream []byte, rows int) error) error {
	q := p.query()
	if rgLo >= 0 {
		q.Set("rg_lo", strconv.Itoa(rgLo))
	}
	if rgHi >= 0 {
		q.Set("rg_hi", strconv.Itoa(rgHi))
	}
	return c.do(ctx, http.MethodGet, "/v1/columns/"+url.PathEscape(name)+"/scan", q, nil, "", func(body []byte, hdr http.Header) error {
		rows := hdr.Get("X-Alp-Scan-Rows")
		if rows == "" {
			return errors.New("alpserved: scan response truncated (no completion trailer)")
		}
		n, err := strconv.Atoi(rows)
		if err != nil || n < 0 {
			return fmt.Errorf("alpserved: bad scan row trailer %q", rows)
		}
		return use(body, n)
	})
}

// DataRange exports the compressed stream of the row-group range
// [rgLo, rgHi] (inclusive, server-local indexes) as a standalone
// re-based column — the raw-export half of a rebalance move. Pass -1,
// -1 for the column's full stored bytes.
func (c *Client) DataRange(ctx context.Context, name string, rgLo, rgHi int) ([]byte, error) {
	q := url.Values{}
	if rgLo >= 0 {
		q.Set("rg_lo", strconv.Itoa(rgLo))
	}
	if rgHi >= 0 {
		q.Set("rg_hi", strconv.Itoa(rgHi))
	}
	var data []byte
	err := c.do(ctx, http.MethodGet, "/v1/columns/"+url.PathEscape(name)+"/data", q, nil, "", cloneInto(&data))
	return data, err
}

// IngestCompressed uploads an already-marshaled ALP column stream
// verbatim (Content-Type application/x-alp-column): no server-side
// re-encode, the ingest half of a rebalance move. The server validates
// the stream before binding it.
func (c *Client) IngestCompressed(ctx context.Context, name string, data []byte) (ColumnInfo, error) {
	return c.ingest(ctx, name, data, CompressedContentType)
}
