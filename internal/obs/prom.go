// Prometheus/OpenMetrics text exposition of the collector snapshot, so
// standard scrapers consume alpserved's telemetry without the JSON
// shim. Every metric is prefixed "alp_"; counters render as themselves
// under their table's help line, the log2 latency histograms render as
// native Prometheus histograms with cumulative _bucket/_sum/_count
// series (bucket bounds in nanoseconds — the metric names carry the _ns
// suffix so the unit is explicit), and the bit-width histogram renders
// as a labeled counter family. Hand-rolled like the JSON path: no
// client_golang dependency.
package obs

import (
	"fmt"
	"io"
	"strings"
)

// PromContentType is the Content-Type of the text exposition format
// (Prometheus exposition format version 0.0.4).
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// promPrefix namespaces every exposed metric.
const promPrefix = "alp_"

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format. Metrics appear in the same stable order on every
// call: counters in schema order, then the bit-width family, then the
// latency histograms.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for id, c := range s.Counters() {
		name := promPrefix + c.Name
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, counters[id].help, name, name, c.Value)
	}
	fmt.Fprintf(&b, "# TYPE %sbit_width_vectors counter\n", promPrefix)
	for width, n := range s.BitWidthHist {
		if n != 0 {
			fmt.Fprintf(&b, "%sbit_width_vectors{width=\"%d\"} %d\n", promPrefix, width, n)
		}
	}
	for i := range s.Hists {
		s.Hists[i].writePrometheus(&b, promPrefix+histNames[i]+"_ns")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writePrometheus renders one histogram as a native Prometheus
// histogram: cumulative buckets with nanosecond upper bounds (bucket b
// of the log2 layout covers [2^b, 2^(b+1)) ns, so its le bound is
// 2^(b+1)), a mandatory +Inf bucket, and the _sum/_count pair. Empty
// buckets are elided except the +Inf terminator — the cumulative
// counts stay correct and the payload stays proportional to the
// occupied range of the distribution.
func (s HistSnapshot) writePrometheus(b *strings.Builder, name string) {
	fmt.Fprintf(b, "# TYPE %s histogram\n", name)
	var cum int64
	for i, n := range s.Buckets {
		cum += n
		// The top bucket is open-ended ([2^43 ns, ∞)): its samples are
		// carried by the +Inf terminator, not a finite bound.
		if n != 0 && i < HistBuckets-1 {
			_, hi := bucketBounds(i)
			fmt.Fprintf(b, "%s_bucket{le=\"%d\"} %d\n", name, hi, cum)
		}
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, s.Count)
	fmt.Fprintf(b, "%s_sum %d\n", name, s.SumNs)
	fmt.Fprintf(b, "%s_count %d\n", name, s.Count)
}
