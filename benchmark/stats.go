package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// minP99Samples is the smallest sample for which a 99th percentile has
// ten samples beyond it; below it the p99 is reported as invalid.
const minP99Samples = 1000

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs:
// the smallest sample with at least a p share of the samples at or
// below it. xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the exclusive
// method (Python's statistics.quantiles(xs, n=4)), so spreads computed
// here match the ones an external checker computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		// CPython's formula, extrapolation at the clamped ends included.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// relSpread is the interquartile range as a share of the median.
func relSpread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Host normalization clamps: a calibration reading can never scale a
// measurement by more than 2x either way.
const (
	minFactor = 0.5
	maxFactor = 2.0
)

// hostFactor is the speed factor of the host while a window ran: the
// reference calibration rate over the mean of the calibrations taken
// just before and just after the window, clamped to [0.5, 2]. A slow
// host (low calibration) gives a factor above 1; rates are multiplied
// by it and times divided by it.
func hostFactor(ref float64, cals ...float64) float64 {
	if len(cals) == 0 || ref <= 0 {
		return 1
	}
	sum := 0.0
	for _, c := range cals {
		sum += c
	}
	mean := sum / float64(len(cals))
	if mean <= 0 {
		return maxFactor
	}
	return math.Min(maxFactor, math.Max(minFactor, ref/mean))
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// metric lists are the single source of the names, units, directions
// and bounds it reports.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metricValue is one reported metric, as printed in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// verdict is the comparison of one metric across two result sets.
type verdict struct {
	Metric       string
	Base, Cand   float64 // medians
	BaseSpread   float64 // IQR / median of the base set
	CandSpread   float64
	Change       float64 // (cand - base) / base, signed
	Bound        float64
	Worse        bool // cand is worse than base by more than the bound
	SpreadTooBig bool // a set's spread exceeds the bound (setup_s exempt)
}

// compareSets applies the regression rule of the end-to-end metrics to
// two sets of runs of one workload: the candidate's median may be worse
// than the base median by at most the metric's bound, and each set's
// run-to-run spread should stay within the bound.
func compareSets(metrics []metricSpec, base, cand []result) []verdict {
	var out []verdict
	for _, m := range metrics {
		bv, cv := collect(base, m.Name), collect(cand, m.Name)
		if len(bv) == 0 || len(cv) == 0 {
			continue
		}
		v := verdict{Metric: m.Name, Base: median(bv), Cand: median(cv),
			BaseSpread: relSpread(bv), CandSpread: relSpread(cv), Bound: m.Bound}
		if v.Base != 0 {
			v.Change = (v.Cand - v.Base) / math.Abs(v.Base)
		}
		worse := v.Change
		if m.Better == "higher" {
			worse = -worse
		}
		v.Worse = worse > m.Bound
		v.SpreadTooBig = m.Name != "setup_s" && (v.BaseSpread > m.Bound || v.CandSpread > m.Bound)
		out = append(out, v)
	}
	return out
}

func collect(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if mv, ok := r.Metrics[name]; ok {
			out = append(out, mv.Value)
		}
	}
	return out
}
