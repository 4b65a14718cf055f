// Package bench is the measurement harness that regenerates every
// table and figure of the paper's evaluation section (see DESIGN.md §2
// for the experiment index). It provides the codec registry, the
// ratio/speed measurement utilities (tuples per CPU cycle, the paper's
// metric), the LWC+ALP cascade of Table 4, and one driver per
// experiment.
package bench

import (
	"sort"
	"time"

	"github.com/goalp/alp/internal/chimp"
	"github.com/goalp/alp/internal/elf"
	"github.com/goalp/alp/internal/gorilla"
	"github.com/goalp/alp/internal/gp"
	"github.com/goalp/alp/internal/patas"
	"github.com/goalp/alp/internal/pde"
)

// DefaultGHz converts wall-clock time to CPU cycles when the harness is
// not told the clock explicitly. 3.5 GHz mirrors the paper's Ice Lake.
const DefaultGHz = 3.5

// Codec is a byte-stream floating-point codec under test.
type Codec struct {
	Name       string
	Compress   func(src []float64) []byte
	Decompress func(dst []float64, data []byte) error
	// BlockBased marks general-purpose comparators that must be measured
	// on a whole row-group rather than one vector (§4.2: "we increased
	// the size of the experiment for Zstd to one rowgroup").
	BlockBased bool
}

// Baselines returns the competing codecs in the paper's column order:
// Gorilla, Chimp, Chimp128, Patas, PDE, Elf, and the general-purpose
// comparator (DEFLATE standing in for Zstd; see DESIGN.md).
func Baselines() []Codec {
	return []Codec{
		{Name: "Gorilla", Compress: gorilla.Compress, Decompress: gorilla.Decompress},
		{Name: "Chimp", Compress: chimp.Compress, Decompress: chimp.Decompress},
		{Name: "Chimp128", Compress: chimp.CompressN, Decompress: chimp.DecompressN},
		{Name: "Patas", Compress: patas.Compress, Decompress: patas.Decompress},
		{Name: "PDE", Compress: pde.Compress, Decompress: pde.Decompress},
		{Name: "Elf", Compress: elf.Compress, Decompress: elf.Decompress},
		{Name: "Zstd*", Compress: gp.Compress, Decompress: gp.Decompress, BlockBased: true},
	}
}

// BitsPerValue measures a codec's compression ratio on values.
func (c Codec) BitsPerValue(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	data := c.Compress(values)
	return float64(len(data)) * 8 / float64(len(values))
}

// MeasureMedianSeconds is the noise-controlled timing primitive behind
// the cross-domain gauntlet: it runs reps independent measurement
// windows of at least window each (after measureSeconds' own warmup)
// and returns the median seconds-per-call together with the observed
// relative half-spread, (max-min)/(2*median) — the per-metric noise
// bound the regression comparator is told to tolerate on top of its
// threshold. A scheduler stall or GC pause that
// wrecks one window moves the spread, not the median.
func MeasureMedianSeconds(fn func(), window time.Duration, reps int) (median, spread float64) {
	if reps < 1 {
		reps = 1
	}
	samples := make([]float64, reps)
	for i := range samples {
		samples[i] = measureSeconds(fn, window)
	}
	sort.Float64s(samples)
	median = samples[reps/2]
	if reps%2 == 0 {
		median = (samples[reps/2-1] + samples[reps/2]) / 2
	}
	if median > 0 && reps > 1 {
		spread = (samples[reps-1] - samples[0]) / (2 * median)
	}
	return median, spread
}

// measureSeconds runs fn repeatedly until minDuration has elapsed and
// returns the mean seconds per call.
func measureSeconds(fn func(), minDuration time.Duration) float64 {
	// Warm up and estimate a batch size.
	fn()
	start := time.Now()
	fn()
	per := time.Since(start)
	if per <= 0 {
		per = time.Nanosecond
	}
	batch := int(minDuration/per)/4 + 1

	iters := 0
	start = time.Now()
	for elapsed := time.Duration(0); elapsed < minDuration; elapsed = time.Since(start) {
		for i := 0; i < batch; i++ {
			fn()
		}
		iters += batch
	}
	return time.Since(start).Seconds() / float64(iters)
}

// TuplesPerCycle converts a per-call time over n tuples to the paper's
// tuples-per-CPU-cycle metric at the given clock.
func TuplesPerCycle(secondsPerCall float64, n int, ghz float64) float64 {
	if secondsPerCall <= 0 {
		return 0
	}
	cycles := secondsPerCall * ghz * 1e9
	return float64(n) / cycles
}

// Speed is a compression/decompression throughput pair in tuples per
// CPU cycle.
type Speed struct {
	Comp   float64
	Decomp float64
}

// MeasureCodec measures a codec's speed the way the paper does (§4.2):
// one vector of the dataset (or one row-group for block-based codecs)
// is [de]compressed repeatedly so the data stays cache-resident.
func MeasureCodec(c Codec, values []float64, ghz float64, minDur time.Duration) Speed {
	n := 1024
	if c.BlockBased {
		n = 102400
	}
	if n > len(values) {
		n = len(values)
	}
	src := values[:n]
	compSec := measureSeconds(func() { c.Compress(src) }, minDur)
	data := c.Compress(src)
	dst := make([]float64, n)
	decompSec := measureSeconds(func() {
		if err := c.Decompress(dst, data); err != nil {
			panic(c.Name + ": " + err.Error())
		}
	}, minDur)
	return Speed{
		Comp:   TuplesPerCycle(compSec, n, ghz),
		Decomp: TuplesPerCycle(decompSec, n, ghz),
	}
}
