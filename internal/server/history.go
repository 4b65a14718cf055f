// GET /v1/metrics/history: range queries over the self-telemetry
// history store (internal/metricstore). Without ?metric= the endpoint
// lists the available series and the store's footprint; with one it
// aggregates that series into step buckets:
//
//	GET /v1/metrics/history?metric=server_requests&since=-5m&step=10s&agg=rate
//
// Parameters:
//
//	metric  series name (from the listing); omit to list
//	since   range start, required for queries: RFC3339, unix seconds
//	        (integer or float), or a negative duration relative to now
//	        ("-5m")
//	until   range end, same formats; default now
//	step    bucket width as a Go duration ("10s"); default one bucket
//	        spanning the whole range
//	agg     sum|count|min|max|avg|rate|last; default sum
//
// Bucket values ride as strings formatted with strconv 'g'/-1, which
// round-trips every finite float64 exactly — the bit-identity
// guarantee of the store survives the wire.
package server

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/goalp/alp/internal/metricstore"
)

// historyPoint is one step bucket on the wire.
type historyPoint struct {
	TsUs  int64  `json:"ts_us"`
	Value string `json:"value"`
	Count int64  `json:"count"`
}

// historyResponse is the JSON shape of a range query.
type historyResponse struct {
	Metric  string         `json:"metric"`
	Agg     string         `json:"agg"`
	SinceUs int64          `json:"since_us"`
	UntilUs int64          `json:"until_us"`
	StepUs  int64          `json:"step_us"`
	Points  []historyPoint `json:"points"`
}

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) error {
	st := s.opts.MetricsHistory
	if st == nil {
		return errorf(http.StatusNotFound, "metrics history is disabled (alpserved -metrics-history enables it)")
	}
	q := r.URL.Query()
	metric := q.Get("metric")
	if metric == "" {
		WriteJSON(w, http.StatusOK, map[string]any{
			"series": st.Names(),
			"stats":  st.Stats(),
		})
		return nil
	}
	now := time.Now()
	sinceUs, err := parseHistoryTime(q.Get("since"), now)
	if err != nil {
		return errorf(http.StatusBadRequest, "parameter since: %v", err)
	}
	untilUs := now.UnixMicro()
	if v := q.Get("until"); v != "" {
		if untilUs, err = parseHistoryTime(v, now); err != nil {
			return errorf(http.StatusBadRequest, "parameter until: %v", err)
		}
	}
	var step time.Duration
	if v := q.Get("step"); v != "" {
		if step, err = time.ParseDuration(v); err != nil || step <= 0 {
			return errorf(http.StatusBadRequest, "parameter step: %q is not a positive duration", v)
		}
	}
	agg := metricstore.AggSum
	if v := q.Get("agg"); v != "" {
		if agg, err = metricstore.ParseAgg(v); err != nil {
			return errorf(http.StatusBadRequest, "%v", err)
		}
	}
	pts, err := st.Query(metric, sinceUs, untilUs, step, agg)
	if err != nil {
		return errorf(http.StatusBadRequest, "%v", err)
	}
	stepUs := step.Microseconds()
	if stepUs <= 0 {
		stepUs = untilUs - sinceUs
	}
	resp := historyResponse{
		Metric:  metric,
		Agg:     agg.String(),
		SinceUs: sinceUs,
		UntilUs: untilUs,
		StepUs:  stepUs,
		Points:  make([]historyPoint, 0, len(pts)),
	}
	for _, p := range pts {
		resp.Points = append(resp.Points, historyPoint{TsUs: p.TsUs, Value: fmtFloat(p.Value), Count: p.Count})
	}
	WriteJSON(w, http.StatusOK, resp)
	return nil
}

// parseHistoryTime resolves one time parameter to unix microseconds.
// Accepted spellings, tried in order: a negative Go duration relative
// to now ("-5m"), a unix timestamp in seconds (integer or float), or
// RFC3339 ("2026-08-08T12:00:00Z").
func parseHistoryTime(v string, now time.Time) (int64, error) {
	if v == "" {
		return 0, fmt.Errorf("missing (want RFC3339, unix seconds, or a relative duration like -5m)")
	}
	if strings.HasPrefix(v, "-") {
		if d, err := time.ParseDuration(v); err == nil {
			return now.Add(d).UnixMicro(), nil
		}
	}
	if sec, err := strconv.ParseFloat(v, 64); err == nil {
		// Round, don't truncate: a fractional-seconds string carries at
		// most microsecond digits, but the nearest double to it can land
		// a hair under the integer microsecond it names.
		return int64(math.Round(sec * 1e6)), nil
	}
	if t, err := time.Parse(time.RFC3339Nano, v); err == nil {
		return t.UnixMicro(), nil
	}
	return 0, fmt.Errorf("%q is not RFC3339, unix seconds, or a relative duration", v)
}
