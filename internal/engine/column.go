// Relation views over an already-compressed column. BuildALP re-encodes
// raw values partition-at-a-time; a service that ingested a column
// through the streaming Writer already holds the compressed
// representation and must not round-trip it through floats just to
// scan it. BuildALPFromColumn wraps one shared *format.Column as a
// Relation whose partitions are per-row-group views: each partition
// addresses its own global vector range, so morsel-parallel scans,
// zone-map skipping and encoded-domain pushdown all work unchanged,
// and a single-threaded FilterAgg folds rows in position order —
// bit-identical to scanning the same values in process.

package engine

import (
	"github.com/goalp/alp/internal/format"
	"github.com/goalp/alp/internal/vector"
)

// alpViewPartition is one row-group of a shared compressed column. The
// column is immutable; concurrent views decode through caller-owned
// buffers, so any number of scan workers may touch sibling views. Its
// scan and pushdown operators come from vecRange (pushdown.go).
type alpViewPartition struct {
	vecRange
	n int // values in the row-group
}

func (p *alpViewPartition) Len() int { return p.n }

func (p *alpViewPartition) SizeBytes() int {
	g := p.first / vector.RowGroupVectors
	return p.col.RowGroups[g].SizeBits() / 8
}

// BuildALPFromColumn wraps an already-compressed column as a Relation
// with one partition per row-group, sharing the column's storage. No
// re-encode, no decode: scans and filtered aggregates read the same
// bytes the column was ingested as.
func BuildALPFromColumn(name string, col *format.Column) *Relation {
	r := &Relation{Name: name, N: col.N}
	for g := range col.RowGroups {
		rg := &col.RowGroups[g]
		first := g * vector.RowGroupVectors
		r.Parts = append(r.Parts, &alpViewPartition{
			vecRange: vecRange{col: col, first: first, end: first + vector.VectorsIn(rg.N)},
			n:        rg.N,
		})
	}
	return r
}
