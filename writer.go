package alp

import (
	"github.com/goalp/alp/internal/format"
	"github.com/goalp/alp/internal/pipeline"
	"github.com/goalp/alp/internal/vector"
)

// Writer compresses a stream of float64 values incrementally: values
// are buffered until a full row-group (RowGroupSize values) is
// available, then sampled and encoded; Close encodes the remainder and
// serializes the column.
//
// With NewWriter the encode is serial and memory use is bounded by one
// raw row-group plus the compressed output. With NewWriterParallel,
// full row-groups are handed to a bounded worker pool: Write blocks
// while workers+1 raw row-groups are in flight, so memory stays
// bounded no matter how fast the producer writes, and Close reassembles
// the results in row-group order — the serialized stream is
// byte-identical to the serial Writer's and to Encode's.
type Writer struct {
	pending []float64
	groups  []format.RowGroup
	zones   format.ZoneMap
	n       int
	closed  bool
	out     []byte // serialized column, cached by the first Close

	pool *pipeline.Pool[groupJob, groupResult]
}

// groupJob is one raw row-group handed to the encode pool. The values
// slice is owned by the job: it is copied out of the Writer's pending
// buffer at submission, so at most workers+1 raw row-group copies
// exist at any time.
type groupJob struct {
	values []float64
	start  int
}

// groupResult carries a compressed row-group and its per-vector zone
// map back to Close. Row-groups are vector-aligned, so concatenating
// per-group zone maps in order reproduces the whole-column zone map.
type groupResult struct {
	rg format.RowGroup
	zm *format.ZoneMap
}

// NewWriter returns a serial Writer ready for use. The zero value is
// also usable.
func NewWriter() *Writer { return &Writer{} }

// WriterOptions configures a Writer.
type WriterOptions struct {
	// Workers is the number of row-group encode workers: 0 or negative
	// means one per CPU, 1 selects the serial path (same as NewWriter).
	// Values beyond maxWriterWorkers are clamped — each worker holds a
	// raw row-group copy, so unbounded counts would turn a config typo
	// into a memory blow-up.
	Workers int
}

// maxWriterWorkers bounds the encode pool. One worker pins ~800 KB of
// raw row-group, so the cap also caps in-flight memory.
const maxWriterWorkers = 1024

// NewWriterParallel returns a Writer whose row-groups are encoded by a
// bounded worker pool. The serialized output is byte-identical to the
// serial Writer's; only throughput and (bounded) memory use differ.
func NewWriterParallel(opt WriterOptions) *Writer {
	workers := pipeline.Workers(opt.Workers)
	if workers > maxWriterWorkers {
		workers = maxWriterWorkers
	}
	if workers <= 1 {
		return NewWriter()
	}
	w := &Writer{}
	w.pool = pipeline.NewPool(workers, func(_ int, j groupJob) groupResult {
		return groupResult{
			rg: format.EncodeRowGroup(j.values, j.start),
			zm: format.BuildZoneMap(j.values),
		}
	})
	return w
}

// Write buffers values for compression. It may be called any number of
// times with any slice sizes; full row-groups are compressed eagerly
// (or submitted to the encode pool, blocking while the bounded
// in-flight window is full). Write panics if called after Close.
func (w *Writer) Write(values []float64) {
	if w.closed {
		panic("alp: Write after Close")
	}
	w.pending = append(w.pending, values...)
	for len(w.pending) >= vector.RowGroupSize {
		w.flush(w.pending[:vector.RowGroupSize])
		w.pending = w.pending[vector.RowGroupSize:]
	}
}

func (w *Writer) flush(group []float64) {
	if w.pool != nil {
		w.pool.Submit(groupJob{values: append([]float64(nil), group...), start: w.n})
		w.n += len(group)
		return
	}
	w.groups = append(w.groups, format.EncodeRowGroup(group, w.n))
	zm := format.BuildZoneMap(group)
	w.appendZones(zm)
	w.n += len(group)
}

func (w *Writer) appendZones(zm *format.ZoneMap) {
	w.zones.Min = append(w.zones.Min, zm.Min...)
	w.zones.Max = append(w.zones.Max, zm.Max...)
	w.zones.HasValues = append(w.zones.HasValues, zm.HasValues...)
}

// Len returns the number of values written so far.
func (w *Writer) Len() int { return w.n + len(w.pending) }

// Close compresses any buffered remainder, waits for in-flight
// row-groups, and returns the serialized column. After the first call
// the Writer only serves Close: Write panics, and every further Close
// returns the same byte slice the first one produced (it is cached,
// not re-encoded).
func (w *Writer) Close() []byte {
	if w.closed {
		return w.out
	}
	if len(w.pending) > 0 {
		w.flush(w.pending)
		w.pending = nil
	}
	if w.pool != nil {
		for _, r := range w.pool.Finish() {
			w.groups = append(w.groups, r.rg)
			w.appendZones(r.zm)
		}
		w.pool = nil
	}
	w.closed = true
	col := &format.Column{Zones: &w.zones}
	col.N, col.RowGroups = w.n, w.groups
	w.out = col.Marshal()
	return w.out
}

// Abort discards the Writer without producing output: in-flight
// row-groups are drained and dropped, the encode pool's worker
// goroutines exit, and buffered state is released. After Abort the
// Writer is closed — Write panics and Close returns nil. Abort after
// Close (or a second Abort) is a no-op, so `defer w.Abort()` is a safe
// teardown on error paths that may or may not reach Close.
func (w *Writer) Abort() {
	if w.closed {
		return
	}
	w.closed = true
	w.pending = nil
	w.groups = nil
	if w.pool != nil {
		w.pool.Finish()
		w.pool = nil
	}
}

// Reader decompresses a column stream vector-at-a-time, the access
// pattern of a vectorized scan operator.
type Reader struct {
	col     *Column
	next    int
	scratch []int64
}

// NewReader parses data and returns a vector-at-a-time reader.
func NewReader(data []byte) (*Reader, error) {
	col, err := Open(data)
	if err != nil {
		return nil, err
	}
	return &Reader{col: col, scratch: make([]int64, vector.Size)}, nil
}

// Len returns the total number of values in the stream.
func (r *Reader) Len() int { return r.col.Len() }

// Next decompresses the next vector into dst and returns the number of
// values written, or 0 when the stream is exhausted. dst must have room
// for VectorSize values.
func (r *Reader) Next(dst []float64) (int, error) {
	if r.next >= r.col.NumVectors() {
		return 0, nil
	}
	n, err := r.col.ReadVector(r.next, dst)
	if err != nil {
		return 0, err
	}
	r.next++
	return n, nil
}

// Reset rewinds the reader to the first vector.
func (r *Reader) Reset() { r.next = 0 }
