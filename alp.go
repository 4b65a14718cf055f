// Package alp is a pure-Go implementation of ALP (Adaptive Lossless
// floating-Point compression, Afroozeh, Kuffó & Boncz, SIGMOD'24): a
// vectorized, lossless codec for float64/float32 columns that encodes
// doubles originating from decimals as small integers — one exponent
// and factor per 1024-value vector, found by two-level sampling — and
// adaptively falls back to front-bit compression (ALP_rd) for
// high-precision "real doubles".
//
// Compression is bit-exact: every NaN payload, signed zero, infinity
// and subnormal round-trips. Compressed columns are self-describing
// byte streams organized in row-groups of 100 vectors; any vector can
// be decompressed without touching the rest, which is what enables
// predicate push-down and efficient skipping in scan pipelines.
//
// Quick start:
//
//	data := alp.Encode(values)          // []float64 -> compressed bytes
//	back, err := alp.Decode(data)       // bytes -> []float64
//
// Columnar access:
//
//	col, err := alp.Open(data)
//	buf := make([]float64, alp.VectorSize)
//	n, err := col.ReadVector(7, buf)    // decompress only vector 7
//
// Streaming:
//
//	w := alp.NewWriter()
//	w.Write(chunk1); w.Write(chunk2)
//	data := w.Close()
package alp

import (
	"errors"
	"fmt"
	"io"

	"github.com/goalp/alp/internal/format"
	"github.com/goalp/alp/internal/pipeline"
	"github.com/goalp/alp/internal/vector"
)

// VectorSize is the number of values ALP encodes and decodes at a time.
const VectorSize = vector.Size

// RowGroupSize is the number of values per row-group, the granularity
// of scheme selection and first-level sampling.
const RowGroupSize = vector.RowGroupSize

// ErrCorrupt is returned when a compressed stream fails validation.
var ErrCorrupt = format.ErrCorrupt

// Encode compresses values and returns a self-describing byte stream.
// Columns spanning more than one row-group are encoded by a worker
// pool, one worker per CPU; the output is byte-identical to a
// single-worker encode (see EncodeParallel).
func Encode(values []float64) []byte {
	return EncodeParallel(values, 0)
}

// EncodeParallel is Encode with an explicit worker count: row-groups
// are sampled and encoded concurrently by a bounded, morsel-style
// worker pool and reassembled in row-group order, so the output is
// byte-identical at every worker count. workers <= 0 means one worker
// per CPU; 1 forces the serial path. The fan-out is clamped to the
// number of row-groups (one per 102400 values), so small inputs encode
// inline with no goroutine overhead.
func EncodeParallel(values []float64, workers int) []byte {
	return format.EncodeColumnParallel(values, workers).Marshal()
}

// Decode decompresses a stream produced by Encode (or Writer). Columns
// spanning more than one row-group are decoded by a worker pool, one
// worker per CPU; the result is bit-identical to a single-worker
// decode (see DecodeParallel).
func Decode(data []byte) ([]float64, error) {
	return DecodeParallel(data, 0)
}

// DecodeParallel is Decode with an explicit worker count: workers claim
// row-groups morsel-style and decompress each vector directly into its
// slot of the preallocated result slice. workers <= 0 means one worker
// per CPU; 1 forces the serial path.
func DecodeParallel(data []byte, workers int) ([]float64, error) {
	col, err := format.Unmarshal(data)
	if err != nil {
		return nil, err
	}
	return col.DecodeParallel(workers), nil
}

// Column provides random access into a compressed column.
//
// A Column's ReadVector method is not safe for concurrent use: it
// reuses an internal scratch buffer. For parallel scans, use
// ReadVectorInto with one caller-owned scratch buffer per goroutine —
// the compressed representation itself is immutable and may be shared
// freely across goroutines.
type Column struct {
	col     *format.Column
	scratch []int64
}

// Compress encodes values into an in-memory Column, using one encode
// worker per CPU (see CompressParallel).
func Compress(values []float64) *Column {
	return CompressParallel(values, 0)
}

// CompressParallel is Compress with an explicit worker count; the
// resulting Column is identical at every worker count. workers <= 0
// means one worker per CPU; 1 forces the serial path.
func CompressParallel(values []float64, workers int) *Column {
	return &Column{col: format.EncodeColumnParallel(values, workers), scratch: make([]int64, vector.Size)}
}

// Open parses a compressed stream for random access.
func Open(data []byte) (*Column, error) {
	col, err := format.Unmarshal(data)
	if err != nil {
		return nil, err
	}
	return &Column{col: col, scratch: make([]int64, vector.Size)}, nil
}

// Bytes serializes the column.
func (c *Column) Bytes() []byte { return c.col.Marshal() }

// Len returns the number of values in the column.
func (c *Column) Len() int { return c.col.N }

// NumVectors returns the number of vectors in the column.
func (c *Column) NumVectors() int { return c.col.NumVectors() }

// ReadVector decompresses vector i into dst and returns the number of
// values written. dst must have room for VectorSize values. Only the
// addressed vector is decompressed.
func (c *Column) ReadVector(i int, dst []float64) (int, error) {
	if i < 0 || i >= c.col.NumVectors() {
		return 0, fmt.Errorf("alp: vector %d out of range [0, %d)", i, c.col.NumVectors())
	}
	if len(dst) < c.col.VectorLen(i) {
		return 0, errors.New("alp: destination buffer too small")
	}
	return c.col.DecodeVector(i, dst, c.scratch), nil
}

// ReadVectorInto is ReadVector with caller-owned decode state: scratch
// is the integer staging buffer the decimal scheme decodes through. It
// must hold at least VectorSize int64s (pass nil to allocate per call).
// Because the Column itself is only read, any number of goroutines may
// call ReadVectorInto concurrently on the same Column as long as each
// uses its own dst and scratch — no per-goroutine re-Open needed.
func (c *Column) ReadVectorInto(i int, dst []float64, scratch []int64) (int, error) {
	if i < 0 || i >= c.col.NumVectors() {
		return 0, fmt.Errorf("alp: vector %d out of range [0, %d)", i, c.col.NumVectors())
	}
	if len(dst) < c.col.VectorLen(i) {
		return 0, errors.New("alp: destination buffer too small")
	}
	if scratch != nil && len(scratch) < c.col.VectorLen(i) {
		return 0, errors.New("alp: scratch buffer too small (need VectorSize int64s)")
	}
	return c.col.DecodeVector(i, dst, scratch), nil
}

// Values decompresses the whole column, using one decode worker per
// CPU for columns spanning more than one row-group (see
// ValuesParallel).
func (c *Column) Values() []float64 { return c.ValuesParallel(0) }

// ValuesParallel decompresses the whole column with an explicit worker
// count: workers claim row-groups morsel-style and decode every vector
// through ReadVectorInto — each with its own scratch buffer — straight
// into the preallocated result slice, so the result is bit-identical
// to the serial decode. workers <= 0 means one worker per CPU; 1
// forces the serial path.
func (c *Column) ValuesParallel(workers int) []float64 {
	out := make([]float64, c.col.N)
	scratches := make([][]int64, pipeline.Workers(workers))
	pipeline.Run(len(c.col.RowGroups), workers, func(worker, g int) {
		if scratches[worker] == nil {
			scratches[worker] = make([]int64, vector.Size)
		}
		first := g * vector.RowGroupVectors
		for j := 0; j < vector.VectorsIn(c.col.RowGroups[g].N); j++ {
			lo, hi := vector.Bounds(first+j, c.col.N)
			// The compressed column is immutable, so concurrent
			// ReadVectorInto calls with per-worker dst/scratch are safe.
			c.ReadVectorInto(first+j, out[lo:hi], scratches[worker])
		}
	})
	return out
}

// Sum aggregates the column without materializing it, in the fold
// order of AggRange.
func (c *Column) Sum() float64 { return c.col.Sum() }

// BitsPerValue reports the compression ratio in bits per value
// (uncompressed float64 data is 64 bits per value).
func (c *Column) BitsPerValue() float64 { return c.col.BitsPerValue() }

// CompressedSize returns the compressed payload size in bytes.
func (c *Column) CompressedSize() int { return c.col.SizeBits() / 8 }

// UsedRD reports whether any row-group used the ALP_rd scheme.
func (c *Column) UsedRD() bool { return c.col.UsedRD() }

// Exceptions returns the total number of exception slots across all
// vectors of the column — values the decimal scheme (or the ALP_rd
// dictionary) could not represent and stored verbatim instead.
func (c *Column) Exceptions() int { return c.col.Exceptions() }

// NumRowGroups returns the number of row-groups in the column.
func (c *Column) NumRowGroups() int { return len(c.col.RowGroups) }

// Scheme returns the encoding scheme first-level sampling chose for
// row-group g (SchemeALP or SchemeRD).
func (c *Column) Scheme(g int) (Scheme, error) {
	if g < 0 || g >= len(c.col.RowGroups) {
		return 0, fmt.Errorf("alp: row-group %d out of range [0, %d)", g, len(c.col.RowGroups))
	}
	return Scheme(c.col.RowGroups[g].Scheme), nil
}

// SumRange sums the values in [lo, hi], using per-vector min/max zone
// maps to skip vectors that cannot contain qualifying values — a range
// predicate pushed down into the compressed scan. It returns the sum,
// the number of matching values, and the number of vectors examined
// (the rest were skipped without touching their bytes). An examined
// vector is decompressed only when the predicate covers it entirely;
// otherwise the predicate is evaluated on its encoded integers. The sum
// follows AggRange's fold order.
func (c *Column) SumRange(lo, hi float64) (sum float64, count, vectorsTouched int) {
	return c.col.SumRange(lo, hi)
}

// FilterAggResult carries the aggregates of a filtered scan
// (AggRange). Min and Max are +Inf/-Inf when Count is zero; Touched is
// the number of vectors whose payload was examined (the rest were
// skipped via zone maps).
type FilterAggResult = format.FilterAggResult

// AggRange computes SUM, COUNT, MIN and MAX over the values in
// [lo, hi] with encoded-domain predicate pushdown: zone maps skip
// whole vectors, and surviving decimal-scheme vectors evaluate the
// predicate directly on their FFOR-packed integers — the bounds are
// translated into each vector's (e, f) domain, which is exact because
// ALP's decode map is monotone in the encoded integer — so
// non-qualifying rows are never materialized as floats. ALP_rd
// row-groups fall back to decode-then-filter. NaN values never match.
//
// Sum follows the fold order every aggregate in the package shares:
// each row-group folds from zero in position order, and the row-group
// results add in row-group order. The bits therefore match alpserved's
// /agg at any thread count and a cluster's merged answer.
func (c *Column) AggRange(lo, hi float64) FilterAggResult {
	return c.col.AggRange(lo, hi)
}

// EncodedVector returns vector i serialized as a standalone
// self-describing envelope: the vector's compressed payload plus the
// row-group state (ALP_rd cut/dictionary) a decoder needs, so the
// envelope decodes without the rest of the column. This is the unit
// alpserved ships to thin clients that decode locally.
func (c *Column) EncodedVector(i int) ([]byte, error) {
	return c.col.MarshalVector(i)
}

// DecodeEncodedVector decodes a single-vector envelope produced by
// Column.EncodedVector into dst (room for VectorSize values) and
// returns the number of values written.
func DecodeEncodedVector(data []byte, dst []float64) (int, error) {
	return format.UnmarshalVector(data, dst, nil)
}

// ScanStreamContentType is the media type of the selection-aware scan
// stream (the "ALPS" framed wire format): a client sends it in an
// Accept header to receive a filtered scan as compressed per-vector
// frames instead of raw little-endian float64s, and decodes the body
// with DecodeScanStream.
const ScanStreamContentType = format.ScanContentType

// BuildScanStream encodes the rows of the column in [lo, hi] as a
// selection-aware scan stream — the same framed body alpserved streams
// for Accept: application/x-alp-scan — and returns it with the total
// row count. Useful for fixtures and offline transport; servers stream
// frame-at-a-time instead of buffering.
func (c *Column) BuildScanStream(lo, hi float64) ([]byte, int) {
	return format.BuildScanStream(c.col, lo, hi)
}

// DecodeScanStream decodes a complete selection-aware scan stream into
// the selected rows, in position order, bit-identical to filtering the
// decoded column locally. Any structural defect — bad magic, truncated
// or corrupted frame, bitmap/count mismatch — returns an error along
// with the rows decoded before the defect.
func DecodeScanStream(data []byte) ([]float64, error) {
	d, err := format.NewScanDecoder(data)
	if err != nil {
		return nil, err
	}
	var out []float64
	for {
		rows, err := d.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rows...)
	}
}
