package format

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"sync"
	"time"
	"unsafe"

	"github.com/goalp/alp/internal/obs"
	"github.com/goalp/alp/internal/pipeline"
	"github.com/goalp/alp/internal/vector"
)

// MaxEncodeWorkers bounds an Encoder's pool. Each worker owns one raw
// row-group buffer (~800 KB) while it encodes, so the cap also caps
// in-flight memory: a config typo cannot become a memory blow-up.
const MaxEncodeWorkers = 1024

// ErrPartialValue is returned by Encoder.ReadFrom when the input ends
// inside a float64: its length is not a multiple of 8.
var ErrPartialValue = errors.New("format: input ends inside a float64")

// Encoder compresses a stream of float64 values into a Column one
// row-group at a time. Values land in a fixed row-group buffer; a full
// buffer becomes its encode job as it is, so the raw values are never
// regrown or copied once they are in it. With a pool (NewEncoder with
// more than one worker) Write and ReadFrom block while workers+1 jobs
// are in flight, so raw memory stays within workers+2 row-group
// buffers however fast the producer writes, and Close reassembles the
// row-groups in order. The column is the same at any worker count, and
// marshals to exactly the bytes of EncodeColumn.
//
// An Encoder is used by one goroutine; after Close or Abort it only
// answers Len.
type Encoder struct {
	buf  *rowGroupBuf // the row-group being filled; nil until a value arrives
	fill int          // values in buf
	part int          // bytes of a partial value after buf's fill (ReadFrom)
	n    int          // values already handed to encode

	done   []groupResult // serial results, in row-group order
	pool   *pipeline.Pool[groupJob, groupResult]
	trace  *obs.Trace
	closed bool
}

// rowGroupBuf is one raw row-group plus the scratch its encode uses.
// Buffers are reused across encoders through rowGroupBufs, so a steady
// ingest stream allocates no raw row-group memory.
type rowGroupBuf struct {
	values  [vector.RowGroupSize]float64
	scratch [vector.Size]int64
}

var rowGroupBufs = sync.Pool{New: func() any { return new(rowGroupBuf) }}

// bytes views the buffer's values as their in-memory bytes, which
// ReadFrom reads into directly.
func (b *rowGroupBuf) bytes() []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(&b.values[0])), len(b.values)*8)
}

// nativeLE reports a little-endian host, where the wire's float64s are
// already in memory order and ReadFrom decodes nothing.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// groupJob is one full (or final) row-group handed to an encode. The
// job owns buf and returns it to rowGroupBufs once encoded: nothing in
// the encoded row-group aliases the values (ALP exceptions are copied,
// and the sampler's equidistant sample aliases them only while it
// samples).
type groupJob struct {
	buf   *rowGroupBuf
	n     int
	start int
}

// groupResult is a row-group and its per-vector zone map. Row-groups
// are vector-aligned, so the groups' zone maps in order are the
// column's.
type groupResult struct {
	rg RowGroup
	zm *ZoneMap
}

// NewEncoder returns an Encoder over a pool of workers encode
// goroutines: 0 or negative means one per CPU, 1 encodes inline with
// no goroutines, and counts above MaxEncodeWorkers are clamped. When tr
// is non-nil each row-group's encode time is added to its SpanEncode,
// summed over workers.
func NewEncoder(workers int, tr *obs.Trace) *Encoder {
	e := &Encoder{trace: tr}
	workers = min(pipeline.Workers(workers), MaxEncodeWorkers)
	if workers > 1 {
		e.pool = pipeline.NewPool(workers, func(_ int, j groupJob) groupResult {
			r := e.encode(j)
			rowGroupBufs.Put(j.buf)
			return r
		})
	}
	return e
}

// encode compresses one job's row-group and builds its zone map.
func (e *Encoder) encode(j groupJob) groupResult {
	var began time.Time
	if e.trace != nil {
		began = time.Now()
	}
	values := j.buf.values[:j.n]
	r := groupResult{rg: encodeRowGroup(values, j.start, j.buf.scratch[:]), zm: BuildZoneMap(values)}
	e.trace.AddSince(obs.SpanEncode, began)
	return r
}

// Write appends values to the stream. Full row-groups are encoded
// eagerly, or submitted to the pool, blocking while its window is
// full. Write panics after Close or Abort.
func (e *Encoder) Write(values []float64) {
	if e.closed {
		panic("format: Encoder.Write after Close")
	}
	for len(values) > 0 {
		if e.buf == nil {
			e.buf = rowGroupBufs.Get().(*rowGroupBuf)
		}
		k := copy(e.buf.values[e.fill:], values)
		e.fill += k
		values = values[k:]
		if e.fill == vector.RowGroupSize {
			e.flush()
		}
	}
}

// ReadFrom appends the little-endian float64s r delivers until EOF,
// reading straight into the row-group buffer being filled; a value
// split across reads is completed in place by the next one. It returns
// the bytes read. Input that ends inside a value returns
// ErrPartialValue, and any read error other than io.EOF is returned as
// it is; after an error the Encoder only serves Abort. ReadFrom panics
// after Close or Abort.
func (e *Encoder) ReadFrom(r io.Reader) (int64, error) {
	if e.closed {
		panic("format: Encoder.ReadFrom after Close")
	}
	var total int64
	for {
		if e.buf == nil {
			e.buf = rowGroupBufs.Get().(*rowGroupBuf)
		}
		raw := e.buf.bytes()
		got, err := r.Read(raw[e.fill*8+e.part:])
		total += int64(got)
		end := e.fill*8 + e.part + got
		if !nativeLE {
			for i := e.fill; i < end/8; i++ {
				e.buf.values[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			}
		}
		e.fill, e.part = end/8, end%8
		if e.fill == vector.RowGroupSize {
			e.flush()
		}
		switch {
		case err == io.EOF && e.part != 0:
			return total, ErrPartialValue
		case err == io.EOF:
			return total, nil
		case err != nil:
			return total, err
		}
	}
}

// flush hands the filled row-group to its encode. Under a pool the job
// takes the buffer; the serial path encodes in place and refills it.
func (e *Encoder) flush() {
	j := groupJob{buf: e.buf, n: e.fill, start: e.n}
	e.n += e.fill
	e.fill = 0
	if e.pool == nil {
		e.done = append(e.done, e.encode(j))
		return
	}
	e.buf = nil
	e.pool.Submit(j)
}

// Len returns the number of values written so far.
func (e *Encoder) Len() int { return e.n + e.fill }

// Close encodes the buffered remainder, waits for the pool and returns
// the column. The column references nothing of the Encoder. A second
// Close, or Close after Abort, returns nil.
func (e *Encoder) Close() *Column {
	if e.closed {
		return nil
	}
	if e.fill > 0 {
		e.flush()
	}
	results := e.finish()
	col := &Column{columnOf: columnOf[float64]{N: e.n, RowGroups: make([]RowGroup, len(results))}}
	nv := vector.VectorsIn(e.n)
	col.Zones = &ZoneMap{
		Min:       make([]float64, 0, nv),
		Max:       make([]float64, 0, nv),
		HasValues: make([]bool, 0, nv),
	}
	for i, r := range results {
		col.RowGroups[i] = r.rg
		col.Zones.Min = append(col.Zones.Min, r.zm.Min...)
		col.Zones.Max = append(col.Zones.Max, r.zm.Max...)
		col.Zones.HasValues = append(col.Zones.HasValues, r.zm.HasValues...)
	}
	return col
}

// Abort discards the Encoder: in-flight row-groups are drained and
// dropped, the pool's goroutines exit and the buffers go back for
// reuse. Abort after Close, or a second Abort, is a no-op, so
// `defer e.Abort()` is a safe teardown on error paths.
func (e *Encoder) Abort() {
	if !e.closed {
		e.finish()
	}
}

// finish closes the Encoder: it waits for the pool, returns the fill
// buffer and yields every row-group result in order.
func (e *Encoder) finish() []groupResult {
	e.closed = true
	results := e.done
	if e.pool != nil {
		results = e.pool.Finish()
	}
	if e.buf != nil {
		rowGroupBufs.Put(e.buf)
	}
	e.buf, e.fill, e.part, e.done, e.pool = nil, 0, 0, nil, nil
	return results
}
