package bench

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/goalp/alp/internal/dataset"
	"github.com/goalp/alp/internal/vector"
)

func fastOpt() Options {
	return Options{N: 8192, GHz: DefaultGHz, MinDur: time.Millisecond}
}

func TestBaselinesComplete(t *testing.T) {
	names := map[string]bool{}
	for _, c := range Baselines() {
		names[c.Name] = true
		if c.Compress == nil || c.Decompress == nil {
			t.Fatalf("%s: missing functions", c.Name)
		}
	}
	for _, want := range []string{"Gorilla", "Chimp", "Chimp128", "Patas", "PDE", "Elf", "Zstd*"} {
		if !names[want] {
			t.Fatalf("baseline %s missing", want)
		}
	}
}

func TestBitsPerValue(t *testing.T) {
	d, _ := dataset.ByName("City-Temp")
	values := d.Generate(4096)
	for _, c := range Baselines() {
		bits := c.BitsPerValue(values)
		if bits <= 0 || bits > 100 {
			t.Errorf("%s: bits/value = %v", c.Name, bits)
		}
	}
	if got := Baselines()[0].BitsPerValue(nil); got != 0 {
		t.Errorf("empty input bits/value = %v", got)
	}
}

func TestTuplesPerCycle(t *testing.T) {
	// 1024 tuples in 1µs at 1 GHz = 1000 cycles -> ~1.024 t/c.
	got := TuplesPerCycle(1e-6, 1024, 1.0)
	if got < 1.0 || got > 1.05 {
		t.Fatalf("TuplesPerCycle = %v, want ~1.024", got)
	}
	if TuplesPerCycle(0, 1024, 1.0) != 0 {
		t.Fatal("zero time must yield zero")
	}
}

func TestMeasureCodecAndALP(t *testing.T) {
	d, _ := dataset.ByName("Stocks-USA")
	values := d.Generate(8192)
	s := MeasureALP(values, DefaultGHz, time.Millisecond)
	if s.Comp <= 0 || s.Decomp <= 0 {
		t.Fatalf("ALP speed = %+v", s)
	}
	if s.Decomp < s.Comp {
		t.Fatalf("ALP decompression (%v) should be faster than compression (%v)", s.Decomp, s.Comp)
	}
	g := Baselines()[0] // Gorilla
	gs := MeasureCodec(g, values, DefaultGHz, time.Millisecond)
	if gs.Comp <= 0 || gs.Decomp <= 0 {
		t.Fatalf("Gorilla speed = %+v", gs)
	}
	if s.Decomp <= gs.Decomp {
		t.Fatalf("ALP decode (%v t/c) must beat Gorilla (%v t/c)", s.Decomp, gs.Decomp)
	}
}

func TestMeasureALPVariantsOrdering(t *testing.T) {
	d, _ := dataset.ByName("Stocks-USA")
	values := d.Generate(8192)
	// Five calls, each timing the variants back to back; the median of
	// their fused/scalar ratios is what a burst of host noise during
	// one call cannot move.
	ratios := make([]float64, 5)
	for i := range ratios {
		fused, unfused, scalar := MeasureALPVariants(values, DefaultGHz, 5*time.Millisecond)
		if fused <= 0 || unfused <= 0 || scalar <= 0 {
			t.Fatalf("variants = %v %v %v", fused, unfused, scalar)
		}
		ratios[i] = fused / scalar
	}
	// The specialized kernels must clearly beat the generic loop; fused
	// vs unfused ordering is not asserted (timing noise). The race
	// detector slows the loops non-uniformly, so only the sanity checks
	// above hold there.
	if raceEnabled {
		t.Skip("timing ordering is not meaningful under the race detector")
	}
	sort.Float64s(ratios)
	if med := ratios[len(ratios)/2]; med < 1 {
		t.Fatalf("median fused/scalar throughput ratio %.2f (ratios %.2f): fused must beat the generic scalar loop", med, ratios)
	}
}

func TestMeasureCascade(t *testing.T) {
	// Low-cardinality data: the dictionary cascade must win.
	src := make([]float64, 8192)
	r := rand.New(rand.NewSource(1))
	points := []float64{1.25, 7.5, 100.75, 3.125}
	for i := range src {
		src[i] = points[r.Intn(len(points))]
	}
	c := MeasureCascade(src)
	if c.Scheme != "dict" {
		t.Fatalf("scheme = %q, want dict", c.Scheme)
	}
	if c.BitsPerValue >= 8 {
		t.Fatalf("bits/value = %v, want small", c.BitsPerValue)
	}

	// Run-heavy data: RLE must win.
	for i := range src {
		src[i] = float64(i / 512)
	}
	c = MeasureCascade(src)
	if c.Scheme != "rle" {
		t.Fatalf("scheme = %q, want rle", c.Scheme)
	}

	if got := MeasureCascade(nil); got.BitsPerValue != 0 {
		t.Fatalf("empty cascade = %+v", got)
	}
}

func TestMeasureCascadeLabelIsStable(t *testing.T) {
	// One row-group favours the dictionary and the other RLE: the tie
	// goes to the scheme tried first, on every call.
	points := []float64{1.25, 7.5, 100.75, 3.125}
	r := rand.New(rand.NewSource(2))
	src := make([]float64, vector.RowGroupSize+8192)
	for i := range src[:vector.RowGroupSize] {
		src[i] = points[r.Intn(len(points))]
	}
	for i := range src[vector.RowGroupSize:] {
		src[vector.RowGroupSize+i] = float64(i / 512)
	}
	for call := 0; call < 20; call++ {
		if c := MeasureCascade(src); c.Scheme != "dict" {
			t.Fatalf("call %d: scheme = %q, want dict (tied with rle, tried first)", call, c.Scheme)
		}
	}
}

// TestExperimentDriversRun smoke-tests every experiment driver with a
// tiny configuration so regressions in any table/figure path surface
// in the test suite.
func TestExperimentDriversRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment drivers are slow")
	}
	opt := fastOpt()
	var sb strings.Builder
	RunTable2(&sb, opt)
	RunFig3(&sb, opt)
	RunTable4(&sb, opt)
	RunFig4(&sb, opt)
	RunFig5(&sb, opt)
	RunSampling(&sb, opt)
	RunTable6(&sb, opt, 50_000, []int{1, 2})
	RunFig6(&sb, opt, 50_000, 2)
	RunTable7(&sb, opt)
	RunALPRD(&sb, opt)
	out := sb.String()
	for _, want := range []string{
		"Table 2", "Figure 3", "Table 4", "Figure 4", "Figure 5",
		"Sampling", "Table 6", "Figure 6", "Table 7", "ALP_rd",
		"City-Temp", "POI-lat", "ALP",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("driver output missing %q", want)
		}
	}
}

func TestScaleUp(t *testing.T) {
	src := []float64{1, 2, 3}
	out := scaleUp(src, 8)
	want := []float64{1, 2, 3, 1, 2, 3, 1, 2}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("scaleUp = %v", out)
		}
	}
	if got := scaleUp(src, 2); len(got) != 2 || got[0] != 1 {
		t.Fatalf("truncating scaleUp = %v", got)
	}
}

func TestMeasureMedianSeconds(t *testing.T) {
	med, spread := MeasureMedianSeconds(func() {}, 100*time.Microsecond, 5)
	if med <= 0 {
		t.Errorf("median = %v, want > 0", med)
	}
	if spread < 0 {
		t.Errorf("spread = %v, want >= 0", spread)
	}
	// A single repetition has no spread to report.
	_, spread = MeasureMedianSeconds(func() {}, 100*time.Microsecond, 1)
	if spread != 0 {
		t.Errorf("spread with 1 rep = %v, want 0", spread)
	}
}
