package format

import (
	"math"

	"github.com/goalp/alp/internal/vector"
)

// ZoneMap holds per-vector min/max statistics, computed at compression
// time. This is the metadata that makes the paper's predicate
// push-down concrete: a scan with a range predicate consults the zone
// map and skips whole vectors — possible precisely because ALP vectors
// are independently decodable, unlike general-purpose compression
// blocks (§1, §4.1).
//
// NaN values are excluded from the bounds and tracked with a flag, so
// a vector of only-NaN values has HasValues == false.
type ZoneMap struct {
	Min       []float64
	Max       []float64
	HasValues []bool // false when the vector holds no non-NaN values
}

// BuildZoneMap computes per-vector statistics for values. NaN fails
// both compares, so it never moves a bound, and a vector holds a value
// exactly when its bounds end up ordered. On a ±0 tie the first
// occurrence stays.
func BuildZoneMap(values []float64) *ZoneMap {
	nv := vector.VectorsIn(len(values))
	zm := &ZoneMap{
		Min:       make([]float64, nv),
		Max:       make([]float64, nv),
		HasValues: make([]bool, nv),
	}
	for v := 0; v < nv; v++ {
		lo, hi := vector.Bounds(v, len(values))
		mn, mx := math.Inf(1), math.Inf(-1)
		for _, x := range values[lo:hi] {
			if x < mn {
				mn = x
			}
			if x > mx {
				mx = x
			}
		}
		zm.Min[v], zm.Max[v], zm.HasValues[v] = mn, mx, mn <= mx
	}
	return zm
}

// MayContain reports whether vector v can hold a value in [lo, hi].
// Vectors without statistics (all-NaN) are conservatively kept.
func (zm *ZoneMap) MayContain(v int, lo, hi float64) bool {
	if !zm.HasValues[v] {
		return true
	}
	return zm.Max[v] >= lo && zm.Min[v] <= hi
}

// Contains reports whether every non-NaN value of vector v is certain
// to lie inside [lo, hi]. All-NaN vectors report false (nothing
// matches), and a NaN bound fails every comparison, so Contains is
// never true for a predicate that could reject a row on bounds alone.
func (zm *ZoneMap) Contains(v int, lo, hi float64) bool {
	return zm.HasValues[v] && zm.Min[v] >= lo && zm.Max[v] <= hi
}

// SizeBits returns the zone map's storage cost in bits.
func (zm *ZoneMap) SizeBits() int {
	return len(zm.Min)*(64+64) + len(zm.Min) // two doubles + presence bit
}
