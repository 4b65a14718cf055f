// Package format implements the columnar storage layout for
// ALP-compressed data: columns are split into row-groups of 100 vectors
// of 1024 values; each row-group carries its scheme (ALP decimal or
// ALP_rd), its sampled parameters, and independently decodable vectors,
// so a reader can skip to any vector without touching the rest — the
// property that distinguishes lightweight encodings from block-based
// general-purpose compression (§1, §4.1).
package format

import (
	"time"

	"github.com/goalp/alp/internal/alpenc"
	"github.com/goalp/alp/internal/alprd"
	"github.com/goalp/alp/internal/obs"
	"github.com/goalp/alp/internal/pipeline"
	"github.com/goalp/alp/internal/vector"
)

// Scheme identifies the encoding of a row-group.
type Scheme uint8

const (
	// SchemeALP is the decimal encoding (§3.1).
	SchemeALP Scheme = iota
	// SchemeRD is the real-double encoding (§3.4).
	SchemeRD
)

func (s Scheme) String() string {
	if s == SchemeRD {
		return "ALP_rd"
	}
	return "ALP"
}

// Column is an ALP-compressed column of float64 values. Beside the
// row-groups it carries the zone map that predicate pushdown, ALPS
// scans and the vector wire build on.
type Column struct {
	columnOf[float64]

	// Zones holds per-vector min/max statistics for predicate
	// push-down. Always populated by EncodeColumn; optional in
	// serialized streams. Excluded from SizeBits, which accounts for
	// the codec payload the way Table 4 does.
	Zones *ZoneMap
}

// Column32 is an ALP-compressed column of float32 values (§4.4): the
// same row-groups, with no zone map.
type Column32 struct {
	columnOf[float32]
}

// columnOf is the row-group layer every column shares, written once
// over both float widths: encode, vector decode, parallel decode, size
// accounting and the row-group stream format.
type columnOf[T vector.Float] struct {
	N         int
	RowGroups []RowGroupOf[T]
}

// RowGroupOf is one compressed row-group of T values.
type RowGroupOf[T vector.Float] struct {
	Scheme Scheme
	Start  int // index of the first value
	N      int

	// SchemeALP state.
	Combos  []alpenc.Combo
	Vectors []alpenc.VectorOf[T]

	// SchemeRD state.
	RD        *alprd.Encoder
	RDVectors []alprd.Vector

	// SecondStageTried records, per vector, how many candidate
	// combinations the second sampling stage evaluated (0 when skipped);
	// used by the sampling-overhead experiment (§4.2).
	SecondStageTried []int
}

// RowGroup is one compressed row-group of float64 values.
type RowGroup = RowGroupOf[float64]

// EncodeColumn compresses values: per row-group it runs first-level
// sampling, picks ALP or ALP_rd, and encodes every vector. It is the
// serial path, equivalent to EncodeColumnParallel with one worker.
func EncodeColumn(values []float64) *Column {
	return EncodeColumnParallel(values, 1)
}

// EncodeColumnParallel is EncodeColumn fanned out over a worker pool:
// row-groups are independently sampled and encoded (the paper's
// Algorithm 1 has no cross-row-group state), claimed morsel-style and
// written into an index-addressed slice, so the resulting column — and
// its Marshal output — is byte-identical to the serial encode at any
// worker count. workers <= 0 means one worker per CPU; the fan-out is
// clamped to the row-group count, and a single row-group encodes
// inline with no goroutines.
func EncodeColumnParallel(values []float64, workers int) *Column {
	return &Column{columnOf: encodeColumn(values, workers), Zones: BuildZoneMap(values)}
}

// EncodeColumn32 compresses float32 values serially, as EncodeColumn
// does float64 values.
func EncodeColumn32(values []float32) *Column32 {
	return EncodeColumn32Parallel(values, 1)
}

// EncodeColumn32Parallel is EncodeColumnParallel for float32 values.
func EncodeColumn32Parallel(values []float32, workers int) *Column32 {
	return &Column32{encodeColumn(values, workers)}
}

func encodeColumn[T vector.Float](values []T, workers int) columnOf[T] {
	ng := vector.RowGroupsIn(len(values))
	c := columnOf[T]{N: len(values), RowGroups: make([]RowGroupOf[T], ng)}
	scratches := make([][]int64, pipeline.Workers(workers))
	pipeline.Run(ng, workers, func(worker, g int) {
		if scratches[worker] == nil {
			scratches[worker] = make([]int64, vector.Size)
		}
		lo := g * vector.RowGroupSize
		hi := min(lo+vector.RowGroupSize, len(values))
		c.RowGroups[g] = encodeRowGroup(values[lo:hi], lo, scratches[worker])
	})
	return c
}

// EncodeRowGroup compresses one row-group of values starting at global
// index start. It is the building block of streaming writers: each
// row-group is sampled and encoded independently.
func EncodeRowGroup[T vector.Float](values []T, start int) RowGroupOf[T] {
	return encodeRowGroup(values, start, make([]int64, vector.Size))
}

func encodeRowGroup[T vector.Float](values []T, start int, scratch []int64) RowGroupOf[T] {
	o := obs.Active()
	var began time.Time
	if o != nil {
		began = time.Now()
	}
	rg := RowGroupOf[T]{Start: start, N: len(values)}
	dec := alpenc.SampleRowGroup(values)
	rd := dec.UseRD || len(dec.Combos) == 0
	if rd {
		rg.Scheme = SchemeRD
		rg.RD = alprd.Sample(values)
	} else {
		rg.Scheme = SchemeALP
		rg.Combos = dec.Combos
	}
	for v := 0; v < vector.VectorsIn(len(values)); v++ {
		lo, hi := vector.Bounds(v, len(values))
		if rd {
			ev := alprd.EncodeVector(rg.RD, values[lo:hi])
			o.VectorEncoded(ev.N, ev.Exceptions(), obs.WidthNone)
			rg.RDVectors = append(rg.RDVectors, ev)
			continue
		}
		combo, tried := alpenc.ChooseForVector(values[lo:hi], dec.Combos)
		ev := alpenc.EncodeVector(values[lo:hi], combo, scratch)
		o.VectorEncoded(ev.N, ev.Exceptions(), ev.Ints.Width)
		rg.Vectors = append(rg.Vectors, ev)
		rg.SecondStageTried = append(rg.SecondStageTried, tried)
	}
	o.RowGroup(rd)
	if o != nil {
		ns := time.Since(began).Nanoseconds()
		o.EncodeTime(ns, len(values))
		o.Observe(obs.HistStageEncode, ns)
	}
	return rg
}

// NumVectors returns the number of vectors in the column.
func (c *columnOf[T]) NumVectors() int { return vector.VectorsIn(c.N) }

// VectorLen returns the number of values in vector i.
func (c *columnOf[T]) VectorLen(i int) int {
	lo, hi := vector.Bounds(i, c.N)
	return hi - lo
}

// DecodeVector decompresses vector i (a global vector index) into dst
// and returns the number of values written. Only the addressed vector
// is touched: this is the vector-skipping access path.
func (c *columnOf[T]) DecodeVector(i int, dst []T, scratch []int64) int {
	o := obs.Active()
	var began time.Time
	if o != nil {
		began = time.Now()
	}
	g := i / vector.RowGroupVectors
	local := i % vector.RowGroupVectors
	rg := &c.RowGroups[g]
	var n int
	if rg.Scheme == SchemeRD {
		v := &rg.RDVectors[local]
		alprd.DecodeVector(rg.RD, v, dst[:v.N])
		n = v.N
	} else {
		v := &rg.Vectors[local]
		v.Decode(dst[:v.N], scratch)
		n = v.N
	}
	if o != nil {
		o.VectorDecoded(n, time.Since(began).Nanoseconds())
	}
	return n
}

// Decode decompresses the whole column into a new slice (serially;
// DecodeParallel is the multi-core variant).
func (c *columnOf[T]) Decode() []T {
	return c.DecodeParallel(1)
}

// DecodeParallel decompresses the whole column with a worker pool:
// workers claim row-groups morsel-style and decode each vector straight
// into its slot of the preallocated result slice, so the output is
// bit-identical to the serial decode at any worker count. workers <= 0
// means one worker per CPU; a single row-group decodes inline.
func (c *columnOf[T]) DecodeParallel(workers int) []T {
	out := make([]T, c.N)
	scratches := make([][]int64, pipeline.Workers(workers))
	pipeline.Run(len(c.RowGroups), workers, func(worker, g int) {
		if scratches[worker] == nil {
			scratches[worker] = make([]int64, vector.Size)
		}
		first := g * vector.RowGroupVectors
		for j := 0; j < vector.VectorsIn(c.RowGroups[g].N); j++ {
			lo, hi := vector.Bounds(first+j, c.N)
			c.DecodeVector(first+j, out[lo:hi], scratches[worker])
		}
	})
	return out
}

// SizeBits returns the exact compressed payload size in bits, including
// all per-vector and per-row-group metadata (the bits/value accounting
// of Table 4).
func (c *columnOf[T]) SizeBits() int {
	bits := 64 + 32 // count + row-group count
	for i := range c.RowGroups {
		bits += c.RowGroups[i].SizeBits()
	}
	return bits
}

// SizeBits returns the compressed size of one row-group in bits,
// including its scheme byte and sampled parameters.
func (rg *RowGroupOf[T]) SizeBits() int {
	bits := 8 // scheme byte
	if rg.Scheme == SchemeRD {
		bits += rg.RD.HeaderBits()
		for j := range rg.RDVectors {
			bits += rg.RD.SizeBits(&rg.RDVectors[j])
		}
	} else {
		bits += 8 + len(rg.Combos)*16
		for j := range rg.Vectors {
			bits += rg.Vectors[j].SizeBits()
		}
	}
	return bits
}

// BitsPerValue returns the compression ratio in bits per value
// (uncompressed values are 64 or 32 bits each).
func (c *columnOf[T]) BitsPerValue() float64 {
	if c.N == 0 {
		return 0
	}
	return float64(c.SizeBits()) / float64(c.N)
}

// Exceptions returns the total exception count across all vectors.
func (c *columnOf[T]) Exceptions() int {
	total := 0
	for i := range c.RowGroups {
		rg := &c.RowGroups[i]
		for j := range rg.Vectors {
			total += rg.Vectors[j].Exceptions()
		}
		for j := range rg.RDVectors {
			total += rg.RDVectors[j].Exceptions()
		}
	}
	return total
}

// UsedRD reports whether any row-group fell back to ALP_rd.
func (c *columnOf[T]) UsedRD() bool {
	for i := range c.RowGroups {
		if c.RowGroups[i].Scheme == SchemeRD {
			return true
		}
	}
	return false
}

// SumRange sums the values in [lo, hi], skipping every vector whose
// zone map proves it holds no qualifying values — the predicate
// push-down scan the paper contrasts with block-based compression. It
// returns the sum, the match count, and how many vectors were examined;
// it is AggRange without MIN and MAX.
func (c *Column) SumRange(lo, hi float64) (sum float64, count, touched int) {
	res := c.AggRange(lo, hi)
	return res.Sum, res.Count, res.Touched
}

// Sum decompresses nothing it does not need: it folds the whole column
// through per-vector decode buffers, mirroring a SUM aggregation over a
// scan (§4.3). Each row-group sums from zero in position order and the
// sums add in row-group order, the fold order of AggRange. NaN values
// propagate as in IEEE arithmetic.
func (c *Column) Sum() float64 {
	var total float64
	scratch := make([]int64, vector.Size)
	buf := make([]float64, vector.Size)
	for g := range c.RowGroups {
		first := g * vector.RowGroupVectors
		var sum float64
		for i := first; i < first+vector.VectorsIn(c.RowGroups[g].N); i++ {
			n := c.DecodeVector(i, buf, scratch)
			for _, v := range buf[:n] {
				sum += v
			}
		}
		total += sum
	}
	return total
}
