package alpenc

import (
	"math"
	"math/rand"
	"testing"

	"github.com/goalp/alp/internal/dataset"
	"github.com/goalp/alp/internal/vector"
)

// findBestExhaustive is FindBest with every combination costed in
// full: the reference its bounded costing must agree with.
func findBestExhaustive[T vector.Float](sample []T) (Combo, int) {
	best, bestCost := Combo{}, math.MaxInt
	for e := widthOf[T]().maxExponent(); e >= 0; e-- {
		for f := e; f >= 0; f-- {
			c := Combo{E: uint8(e), F: uint8(f)}
			if cost, _ := comboCost(sample, c); cost < bestCost {
				best, bestCost = c, cost
			}
		}
	}
	return best, bestCost
}

func checkFindBest[T vector.Float](t *testing.T, what string, sample []T) {
	t.Helper()
	got, gotCost := FindBest(sample)
	want, wantCost := findBestExhaustive(sample)
	if got != want || gotCost != wantCost {
		t.Fatalf("%s: FindBest = %v at %d bits, exhaustive search %v at %d bits", what, got, gotCost, want, wantCost)
	}
}

// TestFindBestMatchesExhaustive: stopping a combination's costing once
// it cannot win picks the same combination at the same cost as costing
// all of them, on the first-level samples of every dataset at both
// widths and on random samples of random bits, decimals, specials and
// large integers.
func TestFindBestMatchesExhaustive(t *testing.T) {
	const vectors = 16
	for _, d := range dataset.AllExtended() {
		values := d.Generate(vectors * vector.Size)
		for i := 0; i < vector.VectorsIn(len(values)); i++ {
			lo, hi := vector.Bounds(i, len(values))
			sample := sampleEquidistant(values[lo:hi], SampleValuesPerVec)
			checkFindBest(t, d.Name, sample)
			sample32 := make([]float32, len(sample))
			for j, x := range sample {
				sample32[j] = float32(x)
			}
			checkFindBest(t, d.Name+" (float32)", sample32)
		}
	}

	r := rand.New(rand.NewSource(23))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	value := func(kind int) float64 {
		switch kind {
		case 0:
			return math.Float64frombits(r.Uint64())
		case 1:
			return float64(r.Intn(2_000_000)-1_000_000) / math.Pow10(r.Intn(8))
		case 2:
			return specials[r.Intn(len(specials))]
		default:
			return float64(r.Int63() >> uint(r.Intn(63)))
		}
	}
	for i := 0; i < 20000; i++ {
		sample := make([]float64, 1+r.Intn(SampleValuesPerVec))
		mix := r.Intn(5) // 4: every kind mixed
		for j := range sample {
			kind := mix
			if mix == 4 {
				kind = r.Intn(4)
			}
			sample[j] = value(kind)
		}
		checkFindBest(t, "random sample", sample)
		sample32 := make([]float32, len(sample))
		for j, x := range sample {
			sample32[j] = float32(x)
		}
		checkFindBest(t, "random sample (float32)", sample32)
	}
}
