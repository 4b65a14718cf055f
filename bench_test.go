package alp

// One testing.B benchmark family per table and figure of the paper's
// evaluation (the printable tables themselves come from cmd/alpbench;
// these benches are the Go-native timing view of the same kernels).
//
// Speeds are reported as ns/op plus MB/s over the raw tuple bytes;
// divide tuples/sec by your clock to obtain the paper's tuples/cycle.
// Ratio benches additionally report bits/value via b.ReportMetric.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/goalp/alp/internal/alpenc"
	"github.com/goalp/alp/internal/alprd"
	"github.com/goalp/alp/internal/bench"
	"github.com/goalp/alp/internal/dataset"
	"github.com/goalp/alp/internal/engine"
	"github.com/goalp/alp/internal/fastlanes"
	"github.com/goalp/alp/internal/format"
	"github.com/goalp/alp/internal/vector"
)

// benchDatasets is the diverse subset used for the per-codec speed
// benches (the full 30-dataset sweep lives in cmd/alpbench).
var benchDatasets = []string{"City-Temp", "Stocks-USA", "Blockchain-tr", "Gov/26", "POI-lat"}

func datasetValues(b *testing.B, name string, n int) []float64 {
	b.Helper()
	d, ok := dataset.ByName(name)
	if !ok {
		b.Fatalf("dataset %s missing", name)
	}
	return d.Generate(n)
}

// BenchmarkFig1Compress and BenchmarkFig1Decompress regenerate the
// speed axes of Figure 1 (and the per-scheme averages of Table 5): one
// vector [de]compressed per op, per codec, per dataset.
func BenchmarkFig1Compress(b *testing.B) {
	for _, name := range benchDatasets {
		values := datasetValues(b, name, dataset.DefaultN)
		vec := values[:vector.Size]
		b.Run("ALP/"+name, func(b *testing.B) {
			dec := alpenc.SampleRowGroup(values)
			if len(dec.Combos) == 0 {
				dec.Combos = []alpenc.Combo{{E: 0, F: 0}}
			}
			scratch := make([]int64, vector.Size)
			b.SetBytes(vector.Size * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				combo, _ := alpenc.ChooseForVector(vec, dec.Combos)
				alpenc.EncodeVector(vec, combo, scratch)
			}
		})
		for _, c := range bench.Baselines() {
			c := c
			src := vec
			if c.BlockBased {
				src = values[:vector.RowGroupSize]
			}
			b.Run(c.Name+"/"+name, func(b *testing.B) {
				b.SetBytes(int64(len(src)) * 8)
				for i := 0; i < b.N; i++ {
					c.Compress(src)
				}
			})
		}
	}
}

func BenchmarkFig1Decompress(b *testing.B) {
	for _, name := range benchDatasets {
		values := datasetValues(b, name, dataset.DefaultN)
		vec := values[:vector.Size]
		b.Run("ALP/"+name, func(b *testing.B) {
			dec := alpenc.SampleRowGroup(values)
			if len(dec.Combos) == 0 {
				dec.Combos = []alpenc.Combo{{E: 0, F: 0}}
			}
			combo, _ := alpenc.ChooseForVector(vec, dec.Combos)
			enc := alpenc.EncodeVector(vec, combo, nil)
			dst := make([]float64, len(vec))
			scratch := make([]int64, vector.Size)
			b.SetBytes(vector.Size * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				enc.Decode(dst, scratch)
			}
		})
		for _, c := range bench.Baselines() {
			c := c
			src := vec
			if c.BlockBased {
				src = values[:vector.RowGroupSize]
			}
			data := c.Compress(src)
			dst := make([]float64, len(src))
			b.Run(c.Name+"/"+name, func(b *testing.B) {
				b.SetBytes(int64(len(src)) * 8)
				for i := 0; i < b.N; i++ {
					if err := c.Decompress(dst, data); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTable4 regenerates the compression-ratio table: each op
// compresses the full dataset with ALP, and bits/value is reported as a
// custom metric alongside the timing.
func BenchmarkTable4(b *testing.B) {
	for _, d := range dataset.All() {
		d := d
		b.Run(d.Name, func(b *testing.B) {
			values := d.Generate(dataset.DefaultN / 2)
			b.SetBytes(int64(len(values)) * 8)
			var col *format.Column
			for i := 0; i < b.N; i++ {
				col = format.EncodeColumn(values)
			}
			b.ReportMetric(col.BitsPerValue(), "bits/value")
		})
	}
}

// BenchmarkFig4Variants regenerates the kernel-variant ablation
// standing in for the paper's architecture study.
func BenchmarkFig4Variants(b *testing.B) {
	values := datasetValues(b, "Stocks-USA", dataset.DefaultN)
	vec := values[:vector.Size]
	dec := alpenc.SampleRowGroup(values)
	combo, _ := alpenc.ChooseForVector(vec, dec.Combos)
	enc := alpenc.EncodeVector(vec, combo, nil)
	dst := make([]float64, len(vec))
	scratch := make([]int64, vector.Size)
	b.Run("fused", func(b *testing.B) {
		b.SetBytes(vector.Size * 8)
		for i := 0; i < b.N; i++ {
			enc.Decode(dst, scratch)
		}
	})
	b.Run("unfused", func(b *testing.B) {
		b.SetBytes(vector.Size * 8)
		for i := 0; i < b.N; i++ {
			enc.DecodeUnfused(dst, scratch)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		b.SetBytes(vector.Size * 8)
		for i := 0; i < b.N; i++ {
			enc.DecodeGeneric(dst, scratch)
		}
	})
}

// BenchmarkFig5Width regenerates the synthetic bit-width sweep of
// Figure 5 (bottom): fused vs unfused ALP+FFOR decode at controlled
// vector bit widths.
func BenchmarkFig5Width(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	dst := make([]float64, vector.Size)
	scratch := make([]int64, vector.Size)
	for _, width := range []int{0, 8, 16, 24, 32, 40, 48, 52} {
		ints := make([]int64, vector.Size)
		for i := range ints {
			if width > 0 {
				ints[i] = int64(r.Uint64() & (1<<uint(width) - 1))
			}
		}
		v := alpenc.Vector{E: 2, F: 0, N: vector.Size, Ints: fastlanes.EncodeFFOR(ints)}
		b.Run(benchName("fused", width), func(b *testing.B) {
			b.SetBytes(vector.Size * 8)
			for i := 0; i < b.N; i++ {
				v.Decode(dst, scratch)
			}
		})
		b.Run(benchName("unfused", width), func(b *testing.B) {
			b.SetBytes(vector.Size * 8)
			for i := 0; i < b.N; i++ {
				v.DecodeUnfused(dst, scratch)
			}
		})
	}
}

func benchName(kind string, width int) string {
	return fmt.Sprintf("%s/w%02d", kind, width)
}

// BenchmarkTable6 regenerates the end-to-end engine experiment on
// City-Temp: SCAN and SUM over a partitioned relation.
func BenchmarkTable6(b *testing.B) {
	values := datasetValues(b, "City-Temp", 4*vector.RowGroupSize)
	rels := []*engine.Relation{
		engine.BuildALP(values),
		engine.BuildUncompressed(values),
	}
	for _, r := range rels {
		r := r
		b.Run("SCAN/"+r.Name, func(b *testing.B) {
			b.SetBytes(int64(len(values)) * 8)
			for i := 0; i < b.N; i++ {
				if got := r.Scan(1); got != len(values) {
					b.Fatalf("scan returned %d", got)
				}
			}
		})
		b.Run("SUM/"+r.Name, func(b *testing.B) {
			b.SetBytes(int64(len(values)) * 8)
			for i := 0; i < b.N; i++ {
				r.Sum(1)
			}
		})
	}
	b.Run("COMP/ALP", func(b *testing.B) {
		b.SetBytes(int64(len(values)) * 8)
		for i := 0; i < b.N; i++ {
			format.EncodeColumn(values)
		}
	})
}

// BenchmarkTable7 regenerates the ML-weights experiment: ALP_rd-32
// compression of synthetic model weights, with the achieved bits/value
// reported as a custom metric.
func BenchmarkTable7(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	weights := dataset.Weights32(r, 1<<18)
	b.SetBytes(int64(len(weights)) * 4)
	var col *format.Column32
	for i := 0; i < b.N; i++ {
		col = format.EncodeColumn32(weights)
	}
	b.ReportMetric(col.BitsPerValue(), "bits/value")
	if !col.UsedRD() {
		b.Fatal("weights must use ALP_rd-32")
	}
}

// BenchmarkALPRD regenerates the §4.2 ALP vs ALP_rd speed comparison.
func BenchmarkALPRD(b *testing.B) {
	values := datasetValues(b, "POI-lat", dataset.DefaultN)
	vec := values[:vector.Size]
	enc := alprd.Sample(values)
	b.Run("compress", func(b *testing.B) {
		b.SetBytes(vector.Size * 8)
		for i := 0; i < b.N; i++ {
			enc.EncodeVector(vec)
		}
	})
	v := enc.EncodeVector(vec)
	dst := make([]float64, len(vec))
	b.Run("decompress", func(b *testing.B) {
		b.SetBytes(vector.Size * 8)
		for i := 0; i < b.N; i++ {
			enc.DecodeVector(&v, dst)
		}
	})
}

// BenchmarkDecodeScanStream times the client half of a served scan:
// decoding a whole ALPS stream into one result, over two row-groups of
// City-Temp (decimal frames) and of POI-lat (ALP_rd frames), at 1%
// (a band around the median) and 100% selectivity.
func BenchmarkDecodeScanStream(b *testing.B) {
	for _, name := range []string{"City-Temp", "POI-lat"} {
		values := datasetValues(b, name, 2*vector.RowGroupSize)
		col := Compress(values)
		sorted := slices.Clone(values)
		slices.Sort(sorted)
		mid := len(sorted) / 2
		bands := []struct {
			name   string
			lo, hi float64
		}{
			{"1pct", sorted[mid], sorted[mid+len(sorted)/100]},
			{"100pct", math.Inf(-1), math.Inf(1)},
		}
		for _, band := range bands {
			stream, rows := col.BuildScanStream(band.lo, band.hi)
			b.Run(name+"/"+band.name, func(b *testing.B) {
				b.SetBytes(int64(rows) * 8)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := DecodeScanStream(stream); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSampling times the two sampling levels in isolation (§4.2's
// compression-overhead analysis).
func BenchmarkSampling(b *testing.B) {
	values := datasetValues(b, "CMS/25", vector.RowGroupSize)
	b.Run("first-level", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			alpenc.SampleRowGroup(values)
		}
	})
	dec := alpenc.SampleRowGroup(values)
	vec := values[:vector.Size]
	b.Run("second-level", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			alpenc.ChooseForVector(vec, dec.Combos)
		}
	})
}

// BenchmarkVectorSizeAblation ablates the vector-size design constant
// (1024 in the paper): decode throughput with smaller and larger
// vectors, holding the data fixed.
func BenchmarkVectorSizeAblation(b *testing.B) {
	values := datasetValues(b, "Stocks-USA", 8192)
	for _, size := range []int{128, 256, 512, 1024, 2048, 4096} {
		size := size
		b.Run(benchSizeName(size), func(b *testing.B) {
			// The storage format fixes vectors at 1024 values, but the
			// encoding kernels accept any size, which is what this
			// design-constant ablation varies.
			vec := values[:size]
			dec := alpenc.SampleRowGroup(values)
			combo, _ := alpenc.ChooseForVector(vec, dec.Combos)
			enc := alpenc.EncodeVector(vec, combo, nil)
			dst := make([]float64, len(vec))
			scratch := make([]int64, len(vec))
			b.SetBytes(int64(len(vec)) * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				enc.Decode(dst, scratch)
			}
		})
	}
}

func benchSizeName(n int) string {
	return fmt.Sprintf("v%d", n)
}
