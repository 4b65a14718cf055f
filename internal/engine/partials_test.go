package engine

import (
	"math"
	"math/rand"
	"testing"

	"github.com/goalp/alp/internal/format"
	"github.com/goalp/alp/internal/vector"
)

// partialsValues spans several row-groups (one partial) and mixes in
// the float edge cases partial merging must preserve: NaN (never
// matches), ±Inf, negative zero.
func partialsValues(t *testing.T) []float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	n := 3*vector.RowGroupSize + 777
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Round(rng.NormFloat64()*1e4) / 100
	}
	vals[5] = math.NaN()
	vals[vector.RowGroupSize+9] = math.Inf(1)
	vals[2*vector.RowGroupSize+9] = math.Inf(-1)
	vals[100] = math.Copysign(0, -1)
	return vals
}

func partialsPredicates() []Predicate {
	return []Predicate{
		{Lo: math.Inf(-1), Hi: math.Inf(1)},
		GE(0), LE(0), EQ(0), GT(12.5), LT(-3),
		Between(-50, 50),
		Between(1, -1), // empty interval
	}
}

// Partials must be reproducible at every parallelism, and FilterAgg
// must be exactly their merge.
func TestFilterAggPartialsDeterministic(t *testing.T) {
	vals := partialsValues(t)
	col := format.EncodeColumn(vals)
	r := BuildALPFromColumn("c", col)
	for _, p := range partialsPredicates() {
		ref, _ := r.FilterAggPartials(1, p, nil)
		if len(ref) != len(r.Parts) {
			t.Fatalf("got %d partials, want %d", len(ref), len(r.Parts))
		}
		for _, threads := range []int{2, 4, 7} {
			got, _ := r.FilterAggPartials(threads, p, nil)
			for i := range ref {
				if !aggBitsEqual(ref[i], got[i]) {
					t.Fatalf("pred %+v threads=%d partial %d: %+v != %+v", p, threads, i, got[i], ref[i])
				}
			}
		}
		// FilterAgg is the merged partials, bit for bit, at any thread
		// count.
		merged := MergeAggs(ref)
		for _, threads := range []int{1, 2, 4, 8} {
			got, _ := r.FilterAgg(threads, p)
			if !aggBitsEqual(got, merged) {
				t.Fatalf("pred %+v threads=%d: FilterAgg %+v != merged partials %+v", p, threads, got, merged)
			}
		}
	}
}

// A subset request returns exactly the named partitions' partials, in
// request order.
func TestFilterAggPartialsSubset(t *testing.T) {
	vals := partialsValues(t)
	r := BuildALPFromColumn("c", format.EncodeColumn(vals))
	p := GE(0)
	all, _ := r.FilterAggPartials(1, p, nil)
	idxs := []int{3, 0, 2}
	sub, _ := r.FilterAggPartials(2, p, idxs)
	if len(sub) != len(idxs) {
		t.Fatalf("got %d partials, want %d", len(sub), len(idxs))
	}
	for k, i := range idxs {
		if !aggBitsEqual(sub[k], all[i]) {
			t.Fatalf("subset partial %d (partition %d): %+v != %+v", k, i, sub[k], all[i])
		}
	}
	counts := r.FilterCountPartials(2, p, idxs)
	for k, i := range idxs {
		if counts[k] != all[i].Count {
			t.Fatalf("count partial %d (partition %d): %d != %d", k, i, counts[k], all[i].Count)
		}
	}
}

func TestFilterCountPartialsMatchesAgg(t *testing.T) {
	vals := partialsValues(t)
	r := BuildALPFromColumn("c", format.EncodeColumn(vals))
	for _, p := range partialsPredicates() {
		aggs, _ := r.FilterAggPartials(1, p, nil)
		counts := r.FilterCountPartials(3, p, nil)
		var total int64
		for i := range counts {
			if counts[i] != aggs[i].Count {
				t.Fatalf("pred %+v partition %d: count %d != agg count %d", p, i, counts[i], aggs[i].Count)
			}
			total += counts[i]
		}
		if want := r.FilterCount(1, p); total != want {
			t.Fatalf("pred %+v: summed counts %d != FilterCount %d", p, total, want)
		}
	}
}

func aggBitsEqual(a, b Agg) bool {
	return math.Float64bits(a.Sum) == math.Float64bits(b.Sum) &&
		a.Count == b.Count &&
		math.Float64bits(a.Min) == math.Float64bits(b.Min) &&
		math.Float64bits(a.Max) == math.Float64bits(b.Max)
}
