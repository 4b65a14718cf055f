// Typed access to the server's self-telemetry history
// (GET /v1/metrics/history): list the recorded series and range-query
// one of them. Bucket values ride the wire as shortest-round-trip
// strings and are parsed back with strconv.ParseFloat, so the float64s
// a caller sees are bit-identical to the ones the server's store
// aggregated.
package client

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// HistoryPoint is one step bucket of a metrics-history query: the
// bucket start (unix microseconds), the aggregate value, and how many
// scrape samples contributed.
type HistoryPoint struct {
	TsUs  int64
	Value float64
	Count int64
}

// HistoryResult is a decoded range query.
type HistoryResult struct {
	Metric  string
	Agg     string
	SinceUs int64
	UntilUs int64
	StepUs  int64
	Points  []HistoryPoint
}

// HistoryStats mirrors the server's history-store footprint report.
type HistoryStats struct {
	Series         int     `json:"series"`
	Scrapes        int64   `json:"scrapes"`
	SealedWindows  int     `json:"sealed_windows"`
	SealedSamples  int64   `json:"sealed_samples"`
	HotSamples     int     `json:"hot_samples"`
	SealedBytes    int64   `json:"sealed_bytes"`
	RetentionBytes int64   `json:"retention_bytes"`
	Evictions      int64   `json:"evictions"`
	BitsPerValue   float64 `json:"bits_per_value"`
	EarliestUs     int64   `json:"earliest_us"`
	LatestUs       int64   `json:"latest_us"`
	IntervalMs     int64   `json:"interval_ms"`
	WindowSamples  int     `json:"window_samples"`
}

// historyWire matches the server's response shape; values are strings
// for exact float64 round-tripping.
type historyWire struct {
	Metric  string `json:"metric"`
	Agg     string `json:"agg"`
	SinceUs int64  `json:"since_us"`
	UntilUs int64  `json:"until_us"`
	StepUs  int64  `json:"step_us"`
	Points  []struct {
		TsUs  int64  `json:"ts_us"`
		Value string `json:"value"`
		Count int64  `json:"count"`
	} `json:"points"`
}

// MetricsSeries lists the series the server's history recorder tracks,
// plus the store's footprint. A server running without
// -metrics-history returns an APIError with StatusCode 404.
func (c *Client) MetricsSeries(ctx context.Context) ([]string, HistoryStats, error) {
	var out struct {
		Series []string     `json:"series"`
		Stats  HistoryStats `json:"stats"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/metrics/history", nil, nil, "", jsonInto(&out, "history listing")); err != nil {
		return nil, HistoryStats{}, err
	}
	return out.Series, out.Stats, nil
}

// MetricsHistory range-queries one self-telemetry series. until.IsZero()
// means "now"; step <= 0 means one bucket spanning the whole range; agg
// is sum|count|min|max|avg|rate|last ("" means sum).
func (c *Client) MetricsHistory(ctx context.Context, metric string, since, until time.Time, step time.Duration, agg string) (HistoryResult, error) {
	q := url.Values{}
	q.Set("metric", metric)
	q.Set("since", fmtUnixSeconds(since))
	if !until.IsZero() {
		q.Set("until", fmtUnixSeconds(until))
	}
	if step > 0 {
		q.Set("step", step.String())
	}
	if agg != "" {
		q.Set("agg", agg)
	}
	var wire historyWire
	if err := c.do(ctx, http.MethodGet, "/v1/metrics/history", q, nil, "", jsonInto(&wire, "history response")); err != nil {
		return HistoryResult{}, err
	}
	res := HistoryResult{
		Metric:  wire.Metric,
		Agg:     wire.Agg,
		SinceUs: wire.SinceUs,
		UntilUs: wire.UntilUs,
		StepUs:  wire.StepUs,
		Points:  make([]HistoryPoint, 0, len(wire.Points)),
	}
	for i, p := range wire.Points {
		v, err := strconv.ParseFloat(p.Value, 64)
		if err != nil {
			return HistoryResult{}, fmt.Errorf("alpserved: history point %d value %q: %w", i, p.Value, err)
		}
		res.Points = append(res.Points, HistoryPoint{TsUs: p.TsUs, Value: v, Count: p.Count})
	}
	return res, nil
}

// fmtUnixSeconds renders a time as fractional unix seconds with
// microsecond precision — the resolution the history store records at.
func fmtUnixSeconds(t time.Time) string {
	return strconv.FormatFloat(float64(t.UnixMicro())/1e6, 'f', 6, 64)
}
