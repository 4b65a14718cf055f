package format

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/goalp/alp/internal/alpenc"
	"github.com/goalp/alp/internal/alprd"
	"github.com/goalp/alp/internal/bitpack"
	"github.com/goalp/alp/internal/fastlanes"
	"github.com/goalp/alp/internal/vector"
)

// Magic identifies an ALP column stream ("ALP1" little-endian).
const Magic = uint32(0x31504C41)

// ErrCorrupt is returned when a stream fails structural validation.
var ErrCorrupt = errors.New("format: corrupt ALP stream")

func corrupt(whatf string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(whatf, args...))
}

// Magic32 identifies a float32 ALP column stream ("ALPf"
// little-endian).
const Magic32 = uint32(0x664C5041)

// Marshal serializes the column to a self-describing byte stream: the
// row-groups, then the optional zone-map trailer. The stream is
// written into one allocation of exactly its length.
func (c *Column) Marshal() []byte {
	trailer := 1 // zone-map flag
	if c.Zones != nil {
		trailer += len(c.Zones.Min) * zoneEntryBytes
	}
	out := c.marshal(Magic, trailer)
	// Optional zone-map trailer (scan statistics, not codec payload).
	if c.Zones == nil {
		return append(out, 0)
	}
	out = append(out, 1)
	for i := range c.Zones.Min {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(c.Zones.Min[i]))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(c.Zones.Max[i]))
		if c.Zones.HasValues[i] {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
	}
	return out
}

// zoneEntryBytes is one vector's zone-map trailer entry: min, max and
// the presence byte.
const zoneEntryBytes = 8 + 8 + 1

// Marshal serializes the float32 column; its stream has no trailer.
func (c *Column32) Marshal() []byte { return c.marshal(Magic32, 0) }

// marshal writes the stream header under magic and every row-group
// into a slice with room for exactly them plus trailer more bytes.
func (c *columnOf[T]) marshal(magic uint32, trailer int) []byte {
	size := 4 + 8 + 4 + trailer // magic, count, row-group count
	for i := range c.RowGroups {
		size += c.RowGroups[i].marshaledSize()
	}
	out := make([]byte, 0, size)
	out = binary.LittleEndian.AppendUint32(out, magic)
	out = binary.LittleEndian.AppendUint64(out, uint64(c.N))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(c.RowGroups)))
	for i := range c.RowGroups {
		out = marshalRowGroup(out, &c.RowGroups[i])
	}
	return out
}

// marshaledSize is the byte length marshalRowGroup writes for rg.
func (rg *RowGroupOf[T]) marshaledSize() int {
	size := 1 + 4 + 4 + 2 // scheme, start, count, vector count
	if rg.Scheme == SchemeRD {
		size += 3 + 2*len(rg.RD.Dict) // cut, code width, dictionary
		for j := range rg.RDVectors {
			v := &rg.RDVectors[j]
			size += 2 + 8*(len(v.RightWords)+len(v.CodeWords)) + 2 + 4*len(v.ExcPos)
		}
		return size
	}
	size += 1 + 2*len(rg.Combos)
	excBytes := int(vector.BitWidth[T]() / 8)
	for j := range rg.Vectors {
		v := &rg.Vectors[j]
		// e, f, count, base, width, words, exceptions
		size += 2 + 2 + 8 + 1 + 8*len(v.Ints.Words) + 2 + (2+excBytes)*len(v.ExcPos)
	}
	return size
}

func marshalRowGroup[T vector.Float](out []byte, rg *RowGroupOf[T]) []byte {
	out = append(out, byte(rg.Scheme))
	out = binary.LittleEndian.AppendUint32(out, uint32(rg.Start))
	out = binary.LittleEndian.AppendUint32(out, uint32(rg.N))
	if rg.Scheme == SchemeRD {
		out = marshalRDEncoder(out, rg.RD)
		out = binary.LittleEndian.AppendUint16(out, uint16(len(rg.RDVectors)))
		for j := range rg.RDVectors {
			out = marshalRDVector(out, &rg.RDVectors[j])
		}
		return out
	}
	out = append(out, byte(len(rg.Combos)))
	for _, cb := range rg.Combos {
		out = append(out, cb.E, cb.F)
	}
	out = binary.LittleEndian.AppendUint16(out, uint16(len(rg.Vectors)))
	for j := range rg.Vectors {
		out = marshalALPVector(out, &rg.Vectors[j])
	}
	return out
}

// marshalALPVector writes one decimal-scheme vector; each exception
// value takes T's width on the wire (8 or 4 bytes).
func marshalALPVector[T vector.Float](out []byte, v *alpenc.VectorOf[T]) []byte {
	out = append(out, v.E, v.F)
	out = binary.LittleEndian.AppendUint16(out, uint16(v.N))
	out = binary.LittleEndian.AppendUint64(out, uint64(v.Ints.Base))
	out = append(out, byte(v.Ints.Width))
	for _, w := range v.Ints.Words {
		out = binary.LittleEndian.AppendUint64(out, w)
	}
	out = binary.LittleEndian.AppendUint16(out, uint16(len(v.ExcPos)))
	for _, p := range v.ExcPos {
		out = binary.LittleEndian.AppendUint16(out, p)
	}
	for _, x := range v.ExcVals {
		if vector.BitWidth[T]() == 32 {
			out = binary.LittleEndian.AppendUint32(out, uint32(vector.ToBits(x)))
		} else {
			out = binary.LittleEndian.AppendUint64(out, vector.ToBits(x))
		}
	}
	return out
}

// marshalRDEncoder writes an ALP_rd row-group's cut position, code
// width and dictionary.
func marshalRDEncoder(out []byte, e *alprd.Encoder) []byte {
	out = append(out, e.P, byte(e.CodeWidth), byte(len(e.Dict)))
	for _, d := range e.Dict {
		out = binary.LittleEndian.AppendUint16(out, d)
	}
	return out
}

func marshalRDVector(out []byte, v *alprd.Vector) []byte {
	out = binary.LittleEndian.AppendUint16(out, uint16(v.N))
	for _, w := range v.RightWords {
		out = binary.LittleEndian.AppendUint64(out, w)
	}
	for _, w := range v.CodeWords {
		out = binary.LittleEndian.AppendUint64(out, w)
	}
	out = binary.LittleEndian.AppendUint16(out, uint16(len(v.ExcPos)))
	for _, p := range v.ExcPos {
		out = binary.LittleEndian.AppendUint16(out, p)
	}
	for _, l := range v.ExcLeft {
		out = binary.LittleEndian.AppendUint16(out, l)
	}
	return out
}

// reader is a bounds-checked little-endian cursor.
type reader struct {
	data []byte
	pos  int
	err  error
	// lend, when set, holds buffers words fills in turn instead of
	// allocating: a scan decoder lends its own, because the envelope it
	// parses lives only until the frame is decoded. A Column owns its
	// words, so Unmarshal lends none.
	lend [][]uint64
}

func (r *reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.pos+n > len(r.data) {
		r.err = corrupt("need %d bytes at offset %d, have %d", n, r.pos, len(r.data)-r.pos)
		return false
	}
	return true
}

func (r *reader) u8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.data[r.pos]
	r.pos++
	return v
}

func (r *reader) u16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(r.data[r.pos:])
	r.pos += 2
	return v
}

func (r *reader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.pos:])
	r.pos += 4
	return v
}

func (r *reader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.pos:])
	r.pos += 8
	return v
}

func (r *reader) words(n int) []uint64 {
	if n < 0 || !r.need(8*n) {
		if r.err == nil {
			r.err = corrupt("negative word count")
		}
		return nil
	}
	var out []uint64
	if len(r.lend) > 0 && cap(r.lend[0]) >= n {
		out, r.lend = r.lend[0][:n], r.lend[1:]
	} else {
		out = make([]uint64, n)
	}
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(r.data[r.pos:])
		r.pos += 8
	}
	return out
}

// Unmarshal parses a column stream produced by Column.Marshal,
// validating all structural invariants.
func Unmarshal(data []byte) (*Column, error) {
	r := &reader{data: data}
	c := &Column{}
	if err := c.unmarshal(r, Magic); err != nil {
		return nil, err
	}
	flag := r.u8()
	if r.err != nil {
		// A truncated stream must not be mistaken for one that simply
		// carries no zone map.
		return nil, r.err
	}
	switch flag {
	case 0: // no zone map
	case 1:
		nv := vector.VectorsIn(c.N)
		zm := &ZoneMap{
			Min:       make([]float64, nv),
			Max:       make([]float64, nv),
			HasValues: make([]bool, nv),
		}
		for i := 0; i < nv; i++ {
			zm.Min[i] = math.Float64frombits(r.u64())
			zm.Max[i] = math.Float64frombits(r.u64())
			zm.HasValues[i] = r.u8() == 1
		}
		if r.err != nil {
			return nil, r.err
		}
		c.Zones = zm
	default:
		return nil, corrupt("unknown trailer flag")
	}
	return c, nil
}

// Unmarshal32 parses a float32 column stream produced by
// Column32.Marshal, with the same validation as Unmarshal.
func Unmarshal32(data []byte) (*Column32, error) {
	c := &Column32{}
	if err := c.unmarshal(&reader{data: data}, Magic32); err != nil {
		return nil, err
	}
	return c, nil
}

// unmarshal reads the stream header, which must start with magic, and
// every row-group into c.
func (c *columnOf[T]) unmarshal(r *reader, magic uint32) error {
	if got := r.u32(); got != magic {
		if r.err != nil {
			return r.err
		}
		return corrupt("bad magic %#08x, want %#08x", got, magic)
	}
	n := int(r.u64())
	ng := int(r.u32())
	if r.err != nil {
		return r.err
	}
	if n < 0 || ng != vector.RowGroupsIn(n) {
		return corrupt("row-group count %d inconsistent with %d values", ng, n)
	}
	c.N = n
	for g := 0; g < ng; g++ {
		rg, err := unmarshalRowGroup[T](r)
		if err != nil {
			return err
		}
		// Cross-validate against the global layout: a row-group that
		// claims the wrong extent would desynchronize vector addressing.
		wantStart := g * vector.RowGroupSize
		wantN := min(n-wantStart, vector.RowGroupSize)
		if rg.Start != wantStart || rg.N != wantN {
			return corrupt("row-group %d extent (%d, %d), want (%d, %d)", g, rg.Start, rg.N, wantStart, wantN)
		}
		c.RowGroups = append(c.RowGroups, rg)
	}
	return nil
}

func unmarshalRowGroup[T vector.Float](r *reader) (RowGroupOf[T], error) {
	var rg RowGroupOf[T]
	rg.Scheme = Scheme(r.u8())
	rg.Start = int(r.u32())
	rg.N = int(r.u32())
	if r.err != nil {
		return rg, r.err
	}
	if rg.Scheme > SchemeRD {
		return rg, corrupt("unknown scheme %d", rg.Scheme)
	}
	if rg.N <= 0 || rg.N > vector.RowGroupSize {
		return rg, corrupt("row-group size %d", rg.N)
	}
	if rg.Scheme == SchemeRD {
		enc, err := unmarshalRDEncoder[T](r)
		if err != nil {
			return rg, err
		}
		rg.RD = enc
		nv := int(r.u16())
		if r.err == nil && nv != vector.VectorsIn(rg.N) {
			return rg, corrupt("RD vector count %d for %d values", nv, rg.N)
		}
		for j := 0; j < nv; j++ {
			v, err := unmarshalRDVector(r, enc.P, enc.CodeWidth)
			if err != nil {
				return rg, err
			}
			if lo, hi := vector.Bounds(j, rg.N); v.N != hi-lo {
				return rg, corrupt("RD vector %d holds %d values, position implies %d", j, v.N, hi-lo)
			}
			rg.RDVectors = append(rg.RDVectors, v)
		}
		return rg, r.err
	}

	nc := int(r.u8())
	for i := 0; i < nc; i++ {
		e, f := r.u8(), r.u8()
		if r.err == nil && !alpenc.ValidCombo[T](e, f) {
			return rg, corrupt("combo (%d, %d)", e, f)
		}
		rg.Combos = append(rg.Combos, alpenc.Combo{E: e, F: f})
	}
	nv := int(r.u16())
	if r.err == nil && nv != vector.VectorsIn(rg.N) {
		return rg, corrupt("vector count %d for %d values", nv, rg.N)
	}
	for j := 0; j < nv; j++ {
		v, err := unmarshalALPVector[T](r)
		if err != nil {
			return rg, err
		}
		// A vector that claims a different value count than its position
		// implies would desynchronize decoding (and overrun destination
		// buffers sized from the position).
		if lo, hi := vector.Bounds(j, rg.N); v.N != hi-lo {
			return rg, corrupt("vector %d holds %d values, position implies %d", j, v.N, hi-lo)
		}
		rg.Vectors = append(rg.Vectors, v)
	}
	return rg, r.err
}

// unmarshalRDEncoder reads an ALP_rd cut position, code width and
// dictionary. The cut must leave a left part inside T's width.
func unmarshalRDEncoder[T vector.Float](r *reader) (*alprd.Encoder, error) {
	p := r.u8()
	cw := uint(r.u8())
	dictLen := int(r.u8())
	if r.err != nil {
		return nil, r.err
	}
	if uint(p) >= vector.BitWidth[T]() {
		return nil, corrupt("RD cut position %d", p)
	}
	if cw > alprd.MaxDictBits || dictLen > 1<<cw {
		return nil, corrupt("RD dictionary: width %d size %d", cw, dictLen)
	}
	dict := make([]uint16, dictLen)
	for i := range dict {
		dict[i] = r.u16()
	}
	return alprd.NewEncoder(p, cw, dict), r.err
}

// unmarshalALPVector reads one decimal-scheme vector of T. Exception
// positions must strictly increase, as the encoder writes them: the
// pushdown filter and gather walk them in order, and an unsorted list
// would make them answer differently from a plain decode.
func unmarshalALPVector[T vector.Float](r *reader) (alpenc.VectorOf[T], error) {
	var v alpenc.VectorOf[T]
	v.E = r.u8()
	v.F = r.u8()
	v.N = int(r.u16())
	if r.err != nil {
		return v, r.err
	}
	if !alpenc.ValidCombo[T](v.E, v.F) {
		return v, corrupt("vector combo (%d, %d)", v.E, v.F)
	}
	if v.N <= 0 || v.N > vector.Size {
		return v, corrupt("vector size %d", v.N)
	}
	base := int64(r.u64())
	width := uint(r.u8())
	if r.err == nil && width > 64 {
		return v, corrupt("FFOR width %d", width)
	}
	words := r.words(bitpack.WordCount(v.N, width))
	v.Ints = fastlanes.FFOR{Base: base, Width: width, N: v.N, Words: words}
	ne := int(r.u16())
	if r.err == nil && ne > v.N {
		return v, corrupt("%d exceptions in %d values", ne, v.N)
	}
	for i := 0; i < ne; i++ {
		p := r.u16()
		if r.err == nil && int(p) >= v.N {
			return v, corrupt("exception position %d", p)
		}
		if r.err == nil && i > 0 && p <= v.ExcPos[i-1] {
			return v, corrupt("exception position %d after %d", p, v.ExcPos[i-1])
		}
		v.ExcPos = append(v.ExcPos, p)
	}
	for i := 0; i < ne; i++ {
		if vector.BitWidth[T]() == 32 {
			v.ExcVals = append(v.ExcVals, vector.FromBits[T](uint64(r.u32())))
		} else {
			v.ExcVals = append(v.ExcVals, vector.FromBits[T](r.u64()))
		}
	}
	return v, r.err
}

// unmarshalRDVector reads one ALP_rd vector; like unmarshalALPVector it
// requires strictly increasing exception positions.
func unmarshalRDVector(r *reader, p uint8, cw uint) (alprd.Vector, error) {
	var v alprd.Vector
	v.N = int(r.u16())
	if r.err != nil {
		return v, r.err
	}
	if v.N <= 0 || v.N > vector.Size {
		return v, corrupt("RD vector size %d", v.N)
	}
	v.RightWords = r.words(bitpack.WordCount(v.N, uint(p)))
	v.CodeWords = r.words(bitpack.WordCount(v.N, cw))
	ne := int(r.u16())
	if r.err == nil && ne > v.N {
		return v, corrupt("%d RD exceptions in %d values", ne, v.N)
	}
	for i := 0; i < ne; i++ {
		pos := r.u16()
		if r.err == nil && int(pos) >= v.N {
			return v, corrupt("RD exception position %d", pos)
		}
		if r.err == nil && i > 0 && pos <= v.ExcPos[i-1] {
			return v, corrupt("RD exception position %d after %d", pos, v.ExcPos[i-1])
		}
		v.ExcPos = append(v.ExcPos, pos)
	}
	for i := 0; i < ne; i++ {
		v.ExcLeft = append(v.ExcLeft, r.u16())
	}
	return v, r.err
}
