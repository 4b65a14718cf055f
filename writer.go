package alp

import (
	"github.com/goalp/alp/internal/format"
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
	enc    *format.Encoder
	closed bool
	out    []byte // serialized column, cached by the first Close
}

// NewWriter returns a serial Writer ready for use. The zero value is
// also usable.
func NewWriter() *Writer { return &Writer{} }

// WriterOptions configures a Writer.
type WriterOptions struct {
	// Workers is the number of row-group encode workers: 0 or negative
	// means one per CPU, 1 selects the serial path (same as NewWriter).
	// Values beyond maxWriterWorkers are clamped — each worker holds a
	// raw row-group, so unbounded counts would turn a config typo into
	// a memory blow-up.
	Workers int
}

// maxWriterWorkers bounds the encode pool.
const maxWriterWorkers = format.MaxEncodeWorkers

// NewWriterParallel returns a Writer whose row-groups are encoded by a
// bounded worker pool. The serialized output is byte-identical to the
// serial Writer's; only throughput and (bounded) memory use differ.
func NewWriterParallel(opt WriterOptions) *Writer {
	return &Writer{enc: format.NewEncoder(opt.Workers, nil)}
}

// encoder returns the Writer's encoder, making the zero value's serial
// one on first use.
func (w *Writer) encoder() *format.Encoder {
	if w.enc == nil {
		w.enc = format.NewEncoder(1, nil)
	}
	return w.enc
}

// Write buffers values for compression. It may be called any number of
// times with any slice sizes; full row-groups are compressed eagerly
// (or submitted to the encode pool, blocking while the bounded
// in-flight window is full). Write panics if called after Close.
func (w *Writer) Write(values []float64) {
	if w.closed {
		panic("alp: Write after Close")
	}
	w.encoder().Write(values)
}

// Len returns the number of values written so far.
func (w *Writer) Len() int { return w.encoder().Len() }

// Close compresses any buffered remainder, waits for in-flight
// row-groups, and returns the serialized column. After the first call
// the Writer only serves Close: Write panics, and every further Close
// returns the same byte slice the first one produced (it is cached,
// not re-encoded).
func (w *Writer) Close() []byte {
	if !w.closed {
		w.closed = true
		w.out = w.encoder().Close().Marshal()
	}
	return w.out
}

// Abort discards the Writer without producing output: in-flight
// row-groups are drained and dropped, the encode pool's worker
// goroutines exit, and buffered state is released. After Abort the
// Writer is closed — Write panics and Close returns nil. Abort after
// Close (or a second Abort) is a no-op, so `defer w.Abort()` is a safe
// teardown on error paths that may or may not reach Close.
func (w *Writer) Abort() {
	if !w.closed && w.enc != nil {
		w.enc.Abort()
	}
	w.closed = true
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
