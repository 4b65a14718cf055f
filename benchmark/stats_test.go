package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // reversed: percentile must sort
	}
	return out
}

func TestPercentileIsNearestRank(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{seq(100), 0.50, 50},
		{seq(100), 0.99, 99},
		{seq(1000), 0.99, 990},
		{seq(1001), 0.99, 991}, // ceil(990.99) = 991
		{seq(10), 0.99, 10},
		{[]float64{7}, 0.99, 7},
	} {
		if got := percentile(tc.xs, tc.p); got != tc.want {
			t.Errorf("percentile(n=%d, %v) = %v, want %v", len(tc.xs), tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

// loopOf builds a run whose windows hold the given latencies, in ms.
func loopOf(cals []float64, lats ...[]float64) *loopResult {
	r := &loopResult{cals: cals}
	for _, ls := range lats {
		w := windowResult{dur: time.Second}
		for _, l := range ls {
			w.lat = append(w.lat, time.Duration(l*float64(time.Millisecond)))
			w.values += 1000
		}
		r.windows = append(r.windows, w)
	}
	return r
}

func TestP99InvalidBelowMinimumSamples(t *testing.T) {
	for _, n := range []int{minP99Samples - 1, minP99Samples, minP99Samples + 1} {
		m := summarize(loopOf([]float64{1000, 1000}, seq(n)), 1000)
		if m.samples != n || m.p99Valid != (n >= minP99Samples) {
			t.Errorf("n=%d: samples %d, p99Valid %v", n, m.samples, m.p99Valid)
		}
	}
}

func TestHostFactorClamps(t *testing.T) {
	for _, tc := range []struct {
		cals []float64
		want float64
	}{
		{[]float64{1000, 1000}, 1},
		{[]float64{500, 500}, 2},
		{[]float64{800, 1200}, 1},
		{[]float64{2000, 2000}, 0.5},
		{[]float64{100, 100}, maxFactor},    // a 10x slow reading is clamped
		{[]float64{9000, 11000}, minFactor}, // so is a 10x fast one
		{[]float64{0, 0}, maxFactor},
	} {
		if got := hostFactor(1000, tc.cals...); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("hostFactor(1000, %v) = %v, want %v", tc.cals, got, tc.want)
		}
	}
	if got := hostFactor(0, 123); got != 1 {
		t.Errorf("no reference: factor %v, want 1", got)
	}
}

func TestSummarizeNormalizesEachWindow(t *testing.T) {
	// Window 0 sits between calibrations 1000 and 500 (factor 4/3),
	// window 1 between 500 and 500 (factor 2).
	r := loopOf([]float64{1000, 500, 500}, []float64{4, 4}, []float64{2, 2, 2, 2})
	r.cpu = 600 * time.Millisecond
	m := summarize(r, 1000)
	// 2000 values/s * 4/3 and 4000 values/s * 2, in MV/s; median of two.
	wantTput := (2000*4.0/3 + 4000*2) / 2 / 1e6
	if math.Abs(m.throughputMVs-wantTput) > 1e-12 {
		t.Errorf("throughput %v, want %v", m.throughputMVs, wantTput)
	}
	// Latencies: 4 ms / (4/3) = 3 ms twice, 2 ms / 2 = 1 ms four times.
	if m.p50 != 1 || m.p99 != 3 {
		t.Errorf("p50 %v p99 %v, want 1 and 3", m.p50, m.p99)
	}
	// CPU: 600 ms over 6 calls, divided by the whole span's factor
	// 1000 / mean(1000, 500, 500).
	if want := 100 / (1000 / (2000.0 / 3)); math.Abs(m.cpuMsPerOp-want) > 1e-9 {
		t.Errorf("cpu %v ms/op, want %v", m.cpuMsPerOp, want)
	}
	raw := summarize(r, 0)
	if raw.p99 != 4 || raw.cpuMsPerOp != 100 {
		t.Errorf("unnormalized p99 %v cpu %v, want 4 and 100", raw.p99, raw.cpuMsPerOp)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) in CPython 3.11.
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func results(name string, vals ...float64) []result {
	var out []result
	for _, v := range vals {
		out = append(out, result{Metrics: map[string]metricValue{name: {Value: v}}})
	}
	return out
}

func TestCompareSetsAppliesBoundsAndDirection(t *testing.T) {
	lower := []metricSpec{{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}}
	higher := []metricSpec{{Name: "throughput_mvs", Better: "higher", Bound: 0.1}}
	setup := []metricSpec{{Name: "setup_s", Better: "lower", Bound: 0.25}}
	for _, tc := range []struct {
		name       string
		spec       []metricSpec
		base, cand []float64
		worse      bool
		spread     bool
	}{
		{"latency within bound", lower, []float64{10, 10, 10}, []float64{10.9, 10.9, 10.9}, false, false},
		{"latency beyond bound", lower, []float64{10, 10, 10}, []float64{11.5, 11.5, 11.5}, true, false},
		{"latency improved", lower, []float64{10, 10, 10}, []float64{5, 5, 5}, false, false},
		{"throughput dropped", higher, []float64{100, 100, 100}, []float64{85, 85, 85}, true, false},
		{"throughput rose", higher, []float64{100, 100, 100}, []float64{150, 150, 150}, false, false},
		{"noisy base", lower, []float64{5, 10, 15, 20}, []float64{10, 10, 10, 10}, false, true},
		{"setup spread exempt", setup, []float64{1, 2, 3, 4}, []float64{2.5, 2.5, 2.5}, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			name := tc.spec[0].Name
			vs := compareSets(tc.spec, results(name, tc.base...), results(name, tc.cand...))
			if len(vs) != 1 {
				t.Fatalf("%d verdicts, want 1", len(vs))
			}
			if vs[0].Worse != tc.worse || vs[0].SpreadTooBig != tc.spread {
				t.Errorf("verdict %+v, want worse=%v spread=%v", vs[0], tc.worse, tc.spread)
			}
		})
	}
}
