package alp_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/goalp/alp"
	"github.com/goalp/alp/internal/metricstore"
	"github.com/goalp/alp/internal/obs"
)

// TestCounterExpositions holds the counter table to its promise: every
// counter, declared once in obs, reaches every exposition with its own
// value — the /metrics JSON, the Prometheus text with its HELP and TYPE
// lines, its metric-tagged alp.Stats field (directly and through
// Stats.String) and the metrics-history schema. A table row with no
// tagged Stats field fails here.
func TestCounterExpositions(t *testing.T) {
	c := obs.Enable()
	defer alp.DisableStats()
	c.Reset()
	value := func(id obs.CounterID) int64 { return 1_000_003 + 7_919*int64(id) }
	for id := obs.CounterID(0); id < obs.NumCounters; id++ {
		c.Add(id, value(id))
	}

	metricsJSON := decodeCounters(t, "MetricsJSON", alp.MetricsJSON())
	var prom strings.Builder
	if err := c.Snapshot().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	stats := alp.ReadStats()
	statsJSON := decodeCounters(t, "Stats.String", stats.String())
	tagged := map[string][]int64{}
	sv := reflect.ValueOf(stats)
	for i := 0; i < sv.NumField(); i++ {
		if name, ok := sv.Type().Field(i).Tag.Lookup("metric"); ok {
			tagged[name] = append(tagged[name], sv.Field(i).Int())
		}
	}
	store := metricstore.New(metricstore.Options{})
	store.ScrapeOnce()

	seen := map[string]bool{}
	for id := obs.CounterID(0); id < obs.NumCounters; id++ {
		name, help, want := obs.CounterName(id), obs.CounterHelp(id), value(id)
		if name == "" || seen[name] {
			t.Errorf("counter %d: name %q is empty or repeated", id, name)
		}
		seen[name] = true
		if help == "" || strings.ContainsAny(help, "\r\n") {
			t.Errorf("%s: help %q is not one non-empty line", name, help)
		}
		if got, ok := metricsJSON[name]; !ok || got != want {
			t.Errorf("%s: MetricsJSON has %d (present %v), want %d", name, got, ok, want)
		}
		if line := fmt.Sprintf("# HELP alp_%[1]s %[2]s\n# TYPE alp_%[1]s counter\nalp_%[1]s %[3]d\n", name, help, want); !strings.Contains(prom.String(), line) {
			t.Errorf("%s: Prometheus text lacks\n%s", name, line)
		}
		if got := tagged[name]; len(got) != 1 || got[0] != want {
			t.Errorf("%s: metric-tagged alp.Stats fields hold %v, want exactly one holding %d", name, got, want)
		}
		if got, ok := statsJSON[name]; !ok || got != want {
			t.Errorf("%s: Stats.String has %d (present %v), want %d", name, got, ok, want)
		}
		if _, vals, err := store.Raw(name); err != nil || len(vals) != 1 || vals[0] != float64(want) {
			t.Errorf("%s: metrics-history series holds %v (%v), want [%d]", name, vals, err, want)
		}
	}
	for name := range tagged {
		if !seen[name] {
			t.Errorf("alp.Stats tags %q, which no counter declares", name)
		}
	}
}

// decodeCounters parses a flat JSON metrics object, keeping its
// integer keys.
func decodeCounters(t *testing.T, what, s string) map[string]int64 {
	t.Helper()
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(s), &raw); err != nil {
		t.Fatalf("%s is not JSON: %v", what, err)
	}
	out := make(map[string]int64, len(raw))
	for k, v := range raw {
		var n int64
		if json.Unmarshal(v, &n) == nil {
			out[k] = n
		}
	}
	return out
}
