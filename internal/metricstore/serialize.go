// ALPM: the on-disk snapshot format of a metrics-history store, used
// by alpserved's -metrics-snapshot flag and read back by the `alpfile
// metrics` dumper. Little-endian throughout:
//
//	"ALPM" magic
//	u16 version (currently 1)
//	u16 flags   (bit0: histogram-bucket series present)
//	i64 scrape interval, ns
//	u32 window samples
//	i64 retention budget, bytes
//	u32 series count, then per series: u16 name length + name bytes
//	u32 sealed window count, then per window:
//	      u32 sample count
//	      u32 length + marshaled ALP timestamp column
//	      per series: u32 length + marshaled ALP value column
//	u32 hot-tail sample count
//	      hot timestamps as raw float64 bits, then per series the
//	      hot values as raw float64 bits
//	u32 CRC-32C (Castagnoli) of everything before it
//
// Sealed windows are stored as the exact marshaled bytes the ALP
// writer produced — a snapshot is a container of ALP columns, not a
// re-encoding — so reading one back costs only the CRC and the column
// header parses.
package metricstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	alp "github.com/goalp/alp"
)

const (
	alpmMagic   = "ALPM"
	alpmVersion = 1

	alpmFlagBuckets = 1 << 0
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxSnapshotBytes bounds how large a snapshot ReadStore will parse,
// guarding against a corrupt length field allocating unbounded memory.
const maxSnapshotBytes = 1 << 30

// WriteTo serializes the store (sealed windows and hot tail) in ALPM
// format. The snapshot is a consistent point-in-time view: the store
// lock is held while the view is captured, not while bytes are
// written.
func (st *Store) WriteTo(w io.Writer) (int64, error) {
	st.mu.Lock()
	wins := append([]*window(nil), st.sealed...)
	hotTs := append([]float64(nil), st.hotTs...)
	hot := make([][]float64, len(st.hot))
	for i := range st.hot {
		hot[i] = append([]float64(nil), st.hot[i]...)
	}
	st.mu.Unlock()

	var b bytes.Buffer
	b.WriteString(alpmMagic)
	var flags uint16
	if st.opts.HistogramBuckets {
		flags |= alpmFlagBuckets
	}
	writeU16(&b, alpmVersion)
	writeU16(&b, flags)
	writeI64(&b, st.opts.Interval.Nanoseconds())
	writeU32(&b, uint32(st.opts.WindowSamples))
	writeI64(&b, st.opts.RetentionBytes)
	writeU32(&b, uint32(len(st.names)))
	for _, n := range st.names {
		if len(n) > math.MaxUint16 {
			return 0, fmt.Errorf("metricstore: series name too long: %q", n)
		}
		writeU16(&b, uint16(len(n)))
		b.WriteString(n)
	}
	writeU32(&b, uint32(len(wins)))
	for _, w := range wins {
		writeU32(&b, uint32(w.n))
		writeBlob(&b, w.ts.Bytes())
		for _, c := range w.cols {
			writeBlob(&b, c.Bytes())
		}
	}
	writeU32(&b, uint32(len(hotTs)))
	for _, v := range hotTs {
		writeI64(&b, int64(math.Float64bits(v)))
	}
	for i := range hot {
		for _, v := range hot[i] {
			writeI64(&b, int64(math.Float64bits(v)))
		}
	}
	writeU32(&b, crc32.Checksum(b.Bytes(), crcTable))
	n, err := w.Write(b.Bytes())
	return int64(n), err
}

// ReadStore parses an ALPM snapshot into a queryable Store. The
// restored store serves Query/Raw/Stats/WriteTo; it can also resume
// scraping, in which case the first scrape after restore is treated
// like a first scrape (full totals, not deltas — the pre-snapshot
// counter baseline is gone with the process that wrote it).
func ReadStore(data []byte) (*Store, error) {
	st, err := readStore(data)
	if err != nil {
		return nil, fmt.Errorf("%w (%w)", err, alp.ErrCorrupt)
	}
	return st, nil
}

// readStore is ReadStore; every error it returns is a corrupt snapshot.
func readStore(data []byte) (*Store, error) {
	if len(data) > maxSnapshotBytes {
		return nil, fmt.Errorf("metricstore: snapshot too large (%d bytes)", len(data))
	}
	if len(data) < len(alpmMagic)+4 || string(data[:len(alpmMagic)]) != alpmMagic {
		return nil, errors.New("metricstore: not an ALPM snapshot (bad magic)")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.Checksum(body, crcTable), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("metricstore: snapshot CRC mismatch (got %08x, want %08x)", got, want)
	}
	r := &reader{buf: body[len(alpmMagic):]}

	if v := r.u16(); v != alpmVersion {
		return nil, fmt.Errorf("metricstore: unsupported snapshot version %d", v)
	}
	flags := r.u16()
	opts := Options{
		Interval:         time.Duration(r.i64()),
		WindowSamples:    int(r.u32()),
		RetentionBytes:   r.i64(),
		HistogramBuckets: flags&alpmFlagBuckets != 0,
	}
	st := New(opts)
	nSeries := int(r.u32())
	if nSeries != len(st.names) {
		return nil, fmt.Errorf("metricstore: snapshot has %d series, schema has %d (schema drift)", nSeries, len(st.names))
	}
	for i := 0; i < nSeries; i++ {
		name := string(r.bytes(int(r.u16())))
		if r.err == nil && name != st.names[i] {
			return nil, fmt.Errorf("metricstore: snapshot series %d is %q, schema says %q", i, name, st.names[i])
		}
	}
	nWins := int(r.u32())
	for wi := 0; wi < nWins && r.err == nil; wi++ {
		w := &window{n: int(r.u32()), cols: make([]*alp.Column, nSeries)}
		var err error
		if w.ts, err = openColumn(r, w.n); err != nil {
			return nil, fmt.Errorf("metricstore: window %d timestamps: %w", wi, err)
		}
		for si := 0; si < nSeries; si++ {
			if w.cols[si], err = openColumn(r, w.n); err != nil {
				return nil, fmt.Errorf("metricstore: window %d series %q: %w", wi, st.names[si], err)
			}
		}
		if r.err != nil {
			break
		}
		tsv := w.ts.Values()
		w.firstUs, w.lastUs = tsv[0], tsv[w.n-1]
		w.bytes = int64(w.ts.CompressedSize())
		for _, c := range w.cols {
			w.bytes += int64(c.CompressedSize())
		}
		st.sealed = append(st.sealed, w)
		st.sealedBytes += w.bytes
		st.seals++
	}
	nHot := int(r.u32())
	// The hot tail is nHot raw float64s per series plus the timestamps:
	// a count the remaining bytes cannot hold is rejected before any
	// append, so a forged count cannot allocate.
	if uint64(nHot)*uint64(nSeries+1) > uint64(len(r.buf)/8) {
		return nil, fmt.Errorf("metricstore: hot tail of %d samples x %d series needs more than the %d bytes left", nHot, nSeries+1, len(r.buf))
	}
	for i := 0; i < nHot; i++ {
		st.hotTs = append(st.hotTs, math.Float64frombits(uint64(r.i64())))
	}
	for si := 0; si < nSeries; si++ {
		for i := 0; i < nHot; i++ {
			st.hot[si] = append(st.hot[si], math.Float64frombits(uint64(r.i64())))
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("metricstore: truncated snapshot: %w", r.err)
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("metricstore: %d trailing bytes after snapshot", len(r.buf))
	}
	st.scrapes = int64(nHot)
	for _, w := range st.sealed {
		st.scrapes += int64(w.n)
	}
	return st, nil
}

func openColumn(r *reader, wantN int) (*alp.Column, error) {
	blob := r.bytes(int(r.u32()))
	if r.err != nil {
		return nil, r.err
	}
	c, err := alp.Open(blob)
	if err != nil {
		return nil, err
	}
	if wantN <= 0 || c.Len() != wantN {
		return nil, fmt.Errorf("column holds %d values, window header says %d", c.Len(), wantN)
	}
	return c, nil
}

// ---- little-endian plumbing ----

func writeU16(b *bytes.Buffer, v uint16) {
	var t [2]byte
	binary.LittleEndian.PutUint16(t[:], v)
	b.Write(t[:])
}
func writeU32(b *bytes.Buffer, v uint32) {
	var t [4]byte
	binary.LittleEndian.PutUint32(t[:], v)
	b.Write(t[:])
}
func writeI64(b *bytes.Buffer, v int64) {
	var t [8]byte
	binary.LittleEndian.PutUint64(t[:], uint64(v))
	b.Write(t[:])
}
func writeBlob(b *bytes.Buffer, blob []byte) { writeU32(b, uint32(len(blob))); b.Write(blob) }

// reader is a bounds-checked little-endian cursor: the first short
// read latches err and every subsequent read returns zero values, so
// parse code can run straight-line and check err once.
type reader struct {
	buf []byte
	err error
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf) {
		r.err = fmt.Errorf("need %d bytes, have %d", n, len(r.buf))
		return nil
	}
	out := r.buf[:n]
	r.buf = r.buf[n:]
	return out
}

func (r *reader) u16() uint16 {
	b := r.bytes(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) i64() int64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}
