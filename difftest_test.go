package alp

// difftest_test.go is the cross-codec differential-testing harness:
// one property-based driver runs every codec in the repo (alp, alp_rd,
// gorilla, chimp, chimp128, patas, elf, pde, gp) over the same
// fixed-seed generated datasets and asserts
//
//  1. bit-exact round-trips — decompress(compress(v)) reproduces every
//     input bit pattern, including NaN payloads, signed zeros,
//     infinities and subnormals;
//  2. identical filtered-aggregate results — the encoded-domain
//     pushdown path (engine.FilterAgg / Column.AggRange) must agree
//     with naive decode-then-filter and with a plain-slice oracle in
//     the fold order on every seed and at every thread count,
//     including exception-heavy and all-NaN vectors.
//
// The full run covers well over 1000 (dataset, codec) cases; -short
// caps the seed count so the race job stays inside its budget.

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/goalp/alp/internal/alprd"
	"github.com/goalp/alp/internal/chimp"
	"github.com/goalp/alp/internal/elf"
	"github.com/goalp/alp/internal/engine"
	"github.com/goalp/alp/internal/gorilla"
	"github.com/goalp/alp/internal/gp"
	"github.com/goalp/alp/internal/patas"
	"github.com/goalp/alp/internal/pde"
	"github.com/goalp/alp/internal/vector"
)

// diffCodec is one codec under differential test: roundTrip must
// reproduce the input bit-exactly. stream is non-nil for sequential
// codecs that can also serve as an engine relation.
type diffCodec struct {
	name       string
	roundTrip  func(values []float64) []float64
	compress   func(src []float64) []byte
	decompress func(dst []float64, data []byte) error
}

func streamCodec(name string, compress func([]float64) []byte,
	decompress func([]float64, []byte) error) diffCodec {
	return diffCodec{
		name: name,
		roundTrip: func(values []float64) []float64 {
			out := make([]float64, len(values))
			if err := decompress(out, compress(values)); err != nil {
				panic(name + ": " + err.Error())
			}
			return out
		},
		compress:   compress,
		decompress: decompress,
	}
}

// alprdRoundTrip drives the ALP_rd scheme directly (not via the
// sampler), so real-double datasets exercise it even when the format
// layer would have picked the decimal scheme and vice versa.
func alprdRoundTrip(values []float64) []float64 {
	out := make([]float64, len(values))
	if len(values) == 0 {
		return out
	}
	enc := alprd.Sample(values)
	for v := 0; v < vector.VectorsIn(len(values)); v++ {
		lo, hi := vector.Bounds(v, len(values))
		ev := alprd.EncodeVector(enc, values[lo:hi])
		alprd.DecodeVector(enc, &ev, out[lo:hi])
	}
	return out
}

func diffCodecs() []diffCodec {
	return []diffCodec{
		{name: "alp", roundTrip: func(values []float64) []float64 {
			got, err := Decode(Encode(values))
			if err != nil {
				panic("alp: " + err.Error())
			}
			return got
		}},
		{name: "alp_rd", roundTrip: alprdRoundTrip},
		streamCodec("gorilla", gorilla.Compress, gorilla.Decompress),
		streamCodec("chimp", chimp.Compress, chimp.Decompress),
		streamCodec("chimp128", chimp.CompressN, chimp.DecompressN),
		streamCodec("patas", patas.Compress, patas.Decompress),
		streamCodec("elf", elf.Compress, elf.Decompress),
		streamCodec("pde", pde.Compress, pde.Decompress),
		streamCodec("gp", gp.Compress, gp.Decompress),
	}
}

// diffShape generates one deterministic dataset family; n varies with
// the seed so vector and row-group boundaries are crossed at different
// offsets.
type diffShape struct {
	name string
	gen  func(r *rand.Rand, n int) []float64
}

func diffShapes() []diffShape {
	fill := func(f func(r *rand.Rand, i int) float64) func(*rand.Rand, int) []float64 {
		return func(r *rand.Rand, n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = f(r, i)
			}
			return out
		}
	}
	return []diffShape{
		{"decimals-2dp", fill(func(r *rand.Rand, i int) float64 {
			return float64(r.Intn(2_000_000))/100 - 10_000
		})},
		{"decimals-mixed-precision", fill(func(r *rand.Rand, i int) float64 {
			scale := math.Pow(10, float64(r.Intn(8)))
			return float64(r.Intn(1_000_000)) / scale
		})},
		{"real-doubles", fill(func(r *rand.Rand, i int) float64 {
			return r.NormFloat64() * 1e3
		})},
		{"exception-heavy", fill(func(r *rand.Rand, i int) float64 {
			switch r.Intn(10) {
			case 0:
				return math.NaN()
			case 1:
				return math.Inf(1 - 2*(i&1))
			case 2, 3:
				return r.NormFloat64() * 1e40 // far outside the encodable range
			default:
				return float64(r.Intn(100_000)) / 100
			}
		})},
		{"all-nan", fill(func(r *rand.Rand, i int) float64 {
			return math.NaN()
		})},
		{"constant", fill(func(r *rand.Rand, i int) float64 {
			return 42.42
		})},
		{"monotone-ramp", fill(func(r *rand.Rand, i int) float64 {
			return float64(i) / 128
		})},
		{"specials-mix", fill(func(r *rand.Rand, i int) float64 {
			specials := []float64{
				0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
				math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
				math.MaxFloat64, -math.MaxFloat64, 1.5,
			}
			return specials[r.Intn(len(specials))]
		})},
		{"large-magnitude", fill(func(r *rand.Rand, i int) float64 {
			return (r.Float64() - 0.5) * 1e19 // |v| can exceed the ±2^51 encodable band
		})},
		{"tiny-near-zero", fill(func(r *rand.Rand, i int) float64 {
			if r.Intn(2) == 0 {
				return math.Float64frombits(r.Uint64() & 0xFFFFF) // subnormals
			}
			return float64(r.Intn(200)-100) / 10000
		})},
		{"sawtooth-integers", fill(func(r *rand.Rand, i int) float64 {
			return float64(i % 977)
		})},
		{"random-bits", fill(func(r *rand.Rand, i int) float64 {
			return math.Float64frombits(r.Uint64())
		})},
		{"sparse-outliers", fill(func(r *rand.Rand, i int) float64 {
			if r.Intn(200) == 0 {
				return 1e15 + float64(r.Intn(1000))
			}
			return 7.25
		})},
	}
}

// diffPredicates derives a deterministic predicate set from the data:
// data-driven bands plus the fixed forms the pushdown translation must
// handle (unbounded, point, empty).
func diffPredicates(values []float64, r *rand.Rand) []engine.Predicate {
	var finite []float64
	for _, v := range values {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			finite = append(finite, v)
		}
	}
	preds := []engine.Predicate{
		engine.Between(math.Inf(-1), math.Inf(1)), // everything but NaN
		engine.Between(1, -1),                     // empty band
		engine.EQ(0),
	}
	if len(finite) > 0 {
		sort.Float64s(finite)
		a := finite[r.Intn(len(finite))]
		b := finite[r.Intn(len(finite))]
		if a > b {
			a, b = b, a
		}
		preds = append(preds,
			engine.Between(a, b),
			engine.GT(finite[len(finite)/2]),
			engine.LE(finite[len(finite)/4]),
			engine.EQ(finite[r.Intn(len(finite))]),
		)
	}
	return preds
}

// diffAggOracle folds the qualifying values of a plain slice in the
// fold order — each row-group from a fresh accumulator in index order,
// the row-group aggregates merged in row-group order — the ground
// truth for every filtered-aggregate path.
func diffAggOracle(values []float64, p engine.Predicate) engine.Agg {
	total := engine.Agg{Min: math.Inf(1), Max: math.Inf(-1)}
	for lo := 0; lo < len(values); lo += vector.RowGroupSize {
		a := engine.Agg{Min: math.Inf(1), Max: math.Inf(-1)}
		for _, v := range values[lo:min(lo+vector.RowGroupSize, len(values))] {
			if p.Match(v) {
				a.Sum += v
				a.Count++
				if v < a.Min {
					a.Min = v
				}
				if v > a.Max {
					a.Max = v
				}
			}
		}
		total.Sum += a.Sum
		total.Count += a.Count
		if a.Min < total.Min {
			total.Min = a.Min
		}
		if a.Max > total.Max {
			total.Max = a.Max
		}
	}
	return total
}

func bitsEqualAgg(a, b engine.Agg) bool {
	return math.Float64bits(a.Sum) == math.Float64bits(b.Sum) && a.Count == b.Count &&
		math.Float64bits(a.Min) == math.Float64bits(b.Min) &&
		math.Float64bits(a.Max) == math.Float64bits(b.Max)
}

// TestDifferentialAllCodecs is the harness driver. Every (shape, seed)
// dataset goes through every codec's round-trip and through every
// engine relation's filtered aggregates, all compared against the
// plain-slice oracle.
func TestDifferentialAllCodecs(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 2
	}
	codecs := diffCodecs()
	shapes := diffShapes()
	cases := 0

	for _, shape := range shapes {
		for seed := 0; seed < seeds; seed++ {
			r := rand.New(rand.NewSource(int64(1000000*len(shape.name) + seed)))
			// Size sweeps across vector boundaries; one seed per shape
			// pins the exact vector.Size edge, and one spans two
			// row-groups so the partials merge.
			n := 1500 + (seed*911)%2048
			switch seed {
			case 1:
				n = vector.Size
			case 2:
				n += vector.RowGroupSize
			}
			values := shape.gen(r, n)

			// 1. Round-trips: every codec, bit-exact.
			for _, c := range codecs {
				got := c.roundTrip(values)
				if len(got) != len(values) {
					t.Fatalf("%s/%s seed %d: %d values out, want %d",
						shape.name, c.name, seed, len(got), len(values))
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(values[i]) {
						t.Fatalf("%s/%s seed %d value %d: got %016x, want %016x",
							shape.name, c.name, seed, i,
							math.Float64bits(got[i]), math.Float64bits(values[i]))
					}
				}
				cases++
			}

			// 2. Filtered aggregates: pushdown (ALP), fallback (streams,
			// uncompressed) and forced-naive must all match the oracle.
			// Stream partitions take the same fallback path as the
			// uncompressed one, so the two-row-group seed leaves them
			// out: their block decode costs far more than the check.
			rels := []*engine.Relation{
				engine.BuildALP(values),
				engine.BuildUncompressed(values),
			}
			for _, c := range codecs {
				if c.compress != nil && n <= vector.RowGroupSize {
					rels = append(rels, engine.BuildStream(c.name, values, c.compress, c.decompress))
				}
			}
			for _, p := range diffPredicates(values, r) {
				want := diffAggOracle(values, p)
				for ri, rel := range rels {
					for _, threads := range []int{1, 2, 4, 8} {
						got, _ := rel.FilterAgg(threads, p)
						if !bitsEqualAgg(got, want) {
							t.Fatalf("%s seed %d %s FilterAgg(%d, [%v,%v]) = %+v, want %+v",
								shape.name, seed, rel.Name, threads, p.Lo, p.Hi, got, want)
						}
						if ri != 0 && threads != 1 {
							// FilterAggNaive differs from FilterAgg only on
							// pushdown partitions, which only ALP has.
							continue
						}
						naive, _ := rel.FilterAggNaive(threads, p)
						if !bitsEqualAgg(naive, want) {
							t.Fatalf("%s seed %d %s FilterAggNaive(%d, [%v,%v]) = %+v, want %+v",
								shape.name, seed, rel.Name, threads, p.Lo, p.Hi, naive, want)
						}
					}
					if cnt := rel.FilterCount(1, p); cnt != want.Count {
						t.Fatalf("%s seed %d %s FilterCount([%v,%v]) = %d, want %d",
							shape.name, seed, rel.Name, p.Lo, p.Hi, cnt, want.Count)
					}
					cases++
				}
			}

			// 3. The public column path (format-layer pushdown incl. the
			// RD fallback) against the same oracle. Sum has no predicate,
			// so NaN takes part; it folds in the same order.
			col := Compress(values)
			var wantSum float64
			for lo := 0; lo < len(values); lo += vector.RowGroupSize {
				var s float64
				for _, v := range values[lo:min(lo+vector.RowGroupSize, len(values))] {
					s += v
				}
				wantSum += s
			}
			if got := col.Sum(); math.Float64bits(got) != math.Float64bits(wantSum) {
				t.Fatalf("%s seed %d Column.Sum() = %v, want %v", shape.name, seed, got, wantSum)
			}
			for _, p := range diffPredicates(values, r) {
				res := col.AggRange(p.Lo, p.Hi)
				want := diffAggOracle(values, p)
				if math.Float64bits(res.Sum) != math.Float64bits(want.Sum) ||
					int64(res.Count) != want.Count ||
					math.Float64bits(res.Min) != math.Float64bits(want.Min) ||
					math.Float64bits(res.Max) != math.Float64bits(want.Max) {
					t.Fatalf("%s seed %d Column.AggRange([%v,%v]) = %+v, want %+v",
						shape.name, seed, p.Lo, p.Hi, res, want)
				}
				if sum, count, _ := col.SumRange(p.Lo, p.Hi); math.Float64bits(sum) != math.Float64bits(want.Sum) ||
					int64(count) != want.Count {
					t.Fatalf("%s seed %d Column.SumRange([%v,%v]) = (%v, %d), want (%v, %d)",
						shape.name, seed, p.Lo, p.Hi, sum, count, want.Sum, want.Count)
				}
				cases++
			}
		}
	}

	t.Logf("differential harness: %d cases across %d codecs × %d shapes × %d seeds",
		cases, len(codecs), len(shapes), seeds)
	if !testing.Short() && cases < 1000 {
		t.Fatalf("only %d differential cases, want >= 1000 in full mode", cases)
	}
}
