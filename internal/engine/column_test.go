package engine

import (
	"math"
	"math/rand"
	"testing"

	"github.com/goalp/alp/internal/format"
)

// TestBuildALPFromColumnMatchesBuildALP proves a Relation wrapped
// around an already-compressed column answers filtered aggregates
// bit-identically to one built by re-encoding the raw values — the
// property the column service relies on for wire-vs-local equivalence.
func TestBuildALPFromColumnMatchesBuildALP(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	values := make([]float64, 2*102400+5000) // 3 row-groups, ragged tail
	for i := range values {
		values[i] = math.Round(rng.Float64()*100000) / 100
	}
	values[100] = math.NaN()
	values[101] = math.Inf(1)

	fromRaw := BuildALP(values)
	fromCol := BuildALPFromColumn("view", format.EncodeColumn(values))

	if fromCol.N != len(values) || len(fromCol.Parts) != 3 {
		t.Fatalf("view relation: N=%d parts=%d, want N=%d parts=3", fromCol.N, len(fromCol.Parts), len(values))
	}
	var viewLen int
	for _, p := range fromCol.Parts {
		viewLen += p.Len()
		if _, ok := p.(PushdownScanner); !ok {
			t.Fatal("view partition does not implement PushdownScanner")
		}
		if _, ok := p.(rowGatherer); !ok {
			t.Fatal("view partition does not implement rowGatherer")
		}
	}
	if viewLen != len(values) {
		t.Fatalf("partition lengths sum to %d, want %d", viewLen, len(values))
	}

	preds := []Predicate{
		Between(100, 600),
		GE(999.5),
		LT(3),
		EQ(values[5000]),
		Between(math.Inf(-1), math.Inf(1)),
		Between(5, 4), // empty interval
	}
	for _, p := range preds {
		a1, t1 := fromRaw.FilterAgg(1, p)
		a2, t2 := fromCol.FilterAgg(1, p)
		if a1.Count != a2.Count || t1 != t2 {
			t.Errorf("pred %+v: (count, touched) = (%d, %d) vs (%d, %d)", p, a2.Count, t2, a1.Count, t1)
		}
		if math.Float64bits(a1.Sum) != math.Float64bits(a2.Sum) {
			t.Errorf("pred %+v: sum %v vs %v", p, a2.Sum, a1.Sum)
		}
		if math.Float64bits(a1.Min) != math.Float64bits(a2.Min) ||
			math.Float64bits(a1.Max) != math.Float64bits(a2.Max) {
			t.Errorf("pred %+v: min/max (%v, %v) vs (%v, %v)", p, a2.Min, a2.Max, a1.Min, a1.Max)
		}
		if c1, c2 := fromRaw.FilterCount(4, p), fromCol.FilterCount(4, p); c1 != c2 {
			t.Errorf("pred %+v: FilterCount %d vs %d", p, c2, c1)
		}
		r1, r2 := fromRaw.FilterRows(p), fromCol.FilterRows(p)
		if len(r1) != len(r2) {
			t.Fatalf("pred %+v: FilterRows %d vs %d rows", p, len(r2), len(r1))
		}
		for i := range r1 {
			if math.Float64bits(r1[i]) != math.Float64bits(r2[i]) {
				t.Fatalf("pred %+v: FilterRows row %d = %v, want %v", p, i, r2[i], r1[i])
			}
		}
	}

	// Full scans agree too.
	if n1, n2 := fromRaw.Scan(2), fromCol.Scan(2); n1 != n2 {
		t.Errorf("Scan: %d vs %d tuples", n2, n1)
	}
	if s, ok := fromCol.CompressedBytes(); !ok || s <= 0 {
		t.Errorf("CompressedBytes = (%d, %v), want sized partitions", s, ok)
	}
}
