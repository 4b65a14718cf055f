// Cluster-facing API methods: per-row-group partial aggregates,
// row-group-ranged scans and compressed exports, and compressed
// ingest. These are the calls a scatter-gather coordinator composes —
// a backend answers for the row-groups it holds, the coordinator maps
// local row-group indexes back to global ones and merges in global
// order — but they are plain API surface, usable by any consumer.
package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"github.com/goalp/alp"
)

// AggPartial is one row-group's partial aggregate from a
// partials=rowgroups query. Sum/Min/Max round-trip bit-exactly through
// the wire's 'g'/-1 string encoding.
type AggPartial struct {
	Sum   float64
	Count int64
	Min   float64
	Max   float64
}

type aggPartialWire struct {
	Sum   string `json:"sum"`
	Count int64  `json:"count"`
	Min   string `json:"min"`
	Max   string `json:"max"`
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
	payload, _, err := c.do(ctx, http.MethodGet, "/v1/columns/"+url.PathEscape(name)+"/agg", q, nil, "", "")
	if err != nil {
		return nil, 0, err
	}
	var w struct {
		RowGroups []aggPartialWire `json:"rowgroups"`
		Touched   int              `json:"touched"`
	}
	if err := json.Unmarshal(payload, &w); err != nil {
		return nil, 0, fmt.Errorf("alpserved: bad agg partials response: %w", err)
	}
	out := make([]AggPartial, len(w.RowGroups))
	for i, pw := range w.RowGroups {
		out[i].Count = pw.Count
		if out[i].Sum, err = strconv.ParseFloat(pw.Sum, 64); err != nil {
			return nil, 0, fmt.Errorf("alpserved: bad partial sum %q", pw.Sum)
		}
		if out[i].Min, err = strconv.ParseFloat(pw.Min, 64); err != nil {
			return nil, 0, fmt.Errorf("alpserved: bad partial min %q", pw.Min)
		}
		if out[i].Max, err = strconv.ParseFloat(pw.Max, 64); err != nil {
			return nil, 0, fmt.Errorf("alpserved: bad partial max %q", pw.Max)
		}
	}
	return out, w.Touched, nil
}

// CountPartials runs the filtered count in partials mode: one count
// per row-group, rgs selecting a subset as in AggPartials.
func (c *Client) CountPartials(ctx context.Context, name string, p Predicate, rgs []int) ([]int64, error) {
	q := p.query()
	q.Set("partials", "rowgroups")
	rgList(q, rgs)
	payload, _, err := c.do(ctx, http.MethodGet, "/v1/columns/"+url.PathEscape(name)+"/count", q, nil, "", "")
	if err != nil {
		return nil, err
	}
	var w struct {
		RowGroups []int64 `json:"rowgroups"`
	}
	if err := json.Unmarshal(payload, &w); err != nil {
		return nil, fmt.Errorf("alpserved: bad count partials response: %w", err)
	}
	return w.RowGroups, nil
}

// ScanRange fetches the raw scan payload for the row-group range
// [rgLo, rgHi] (inclusive, server-local indexes; pass -1, -1 for the
// whole column) without decoding it, returning the body bytes, the
// response content type and the server's completion-trailer row count.
// compressed selects the framed ALPS stream; false keeps raw
// little-endian float64s. Both encodings are concatenable across
// ranges (ALPS after stripping the 5-byte stream header of subsequent
// chunks), which is what a scatter-gather coordinator does with them.
// A response without the completion trailer is an error — truncation
// never passes silently.
func (c *Client) ScanRange(ctx context.Context, name string, p Predicate, rgLo, rgHi int, compressed bool) ([]byte, string, int, error) {
	q := p.query()
	if rgLo >= 0 {
		q.Set("rg_lo", strconv.Itoa(rgLo))
	}
	if rgHi >= 0 {
		q.Set("rg_hi", strconv.Itoa(rgHi))
	}
	accept := ""
	if compressed {
		accept = alp.ScanStreamContentType
	}
	payload, hdr, err := c.do(ctx, http.MethodGet, "/v1/columns/"+url.PathEscape(name)+"/scan", q, nil, "", accept)
	if err != nil {
		return nil, "", 0, err
	}
	rows := hdr.Get("X-Alp-Scan-Rows")
	if rows == "" {
		return nil, "", 0, errors.New("alpserved: scan response truncated (no completion trailer)")
	}
	n, err := strconv.Atoi(rows)
	if err != nil || n < 0 {
		return nil, "", 0, fmt.Errorf("alpserved: bad scan row trailer %q", rows)
	}
	return payload, hdr.Get("Content-Type"), n, nil
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
	payload, _, err := c.do(ctx, http.MethodGet, "/v1/columns/"+url.PathEscape(name)+"/data", q, nil, "", "")
	return payload, err
}

// IngestCompressed uploads an already-marshaled ALP column stream
// verbatim (Content-Type application/x-alp-column): no server-side
// re-encode, the ingest half of a rebalance move. The server validates
// the stream before binding it.
func (c *Client) IngestCompressed(ctx context.Context, name string, data []byte) (ColumnInfo, error) {
	payload, _, err := c.do(ctx, http.MethodPost, "/v1/columns/"+url.PathEscape(name), nil, data, CompressedContentType, "")
	if err != nil {
		return ColumnInfo{}, err
	}
	var info ColumnInfo
	if err := json.Unmarshal(payload, &info); err != nil {
		return ColumnInfo{}, fmt.Errorf("alpserved: bad ingest response: %w", err)
	}
	return info, nil
}
