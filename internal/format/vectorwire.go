// Per-vector wire serialization: a single compressed vector packaged
// as a self-describing envelope, so a network service can ship one
// encoded vector to a thin client that decodes it locally — the server
// never converts integers back to floats. The envelope duplicates the
// row-group state a standalone decode needs (the ALP_rd cut position,
// code width and dictionary; decimal-scheme vectors are already
// self-contained), which costs a few bytes per vector but makes every
// envelope independently decodable.
package format

import (
	"encoding/binary"

	"github.com/goalp/alp/internal/alpenc"
	"github.com/goalp/alp/internal/alprd"
	"github.com/goalp/alp/internal/bitpack"
	"github.com/goalp/alp/internal/vector"
)

// VectorMagic identifies a single-vector envelope ("ALPV" little-endian).
const VectorMagic = uint32(0x56504C41)

// MarshalVector serializes vector i as a standalone envelope that
// UnmarshalVector can decode without the rest of the column.
func (c *Column) MarshalVector(i int) ([]byte, error) {
	if i < 0 || i >= c.NumVectors() {
		return nil, corrupt("vector %d out of range [0, %d)", i, c.NumVectors())
	}
	return c.appendVectorEnvelope(make([]byte, 0, c.vectorEnvelopeSize(i)), i), nil
}

// appendVectorEnvelope appends vector i's standalone envelope to out —
// the allocation-free core of MarshalVector, reused by the scan wire
// format's dense frames (which embed the stored envelope verbatim).
// The index must be in range.
func (c *Column) appendVectorEnvelope(out []byte, i int) []byte {
	g := i / vector.RowGroupVectors
	local := i % vector.RowGroupVectors
	rg := &c.RowGroups[g]
	if rg.Scheme == SchemeRD {
		out = binary.LittleEndian.AppendUint32(out, VectorMagic)
		out = append(out, byte(rg.Scheme))
		out = marshalRDEncoder(out, rg.RD)
		return marshalRDVector(out, &rg.RDVectors[local])
	}
	return AppendALPVectorEnvelope(out, &rg.Vectors[local])
}

// AppendALPVectorEnvelope serializes an arbitrary decimal-scheme vector
// as a standalone ALPV envelope — the building block the scan wire
// format uses for re-packed selections, which exist only in flight and
// never belong to a Column.
func AppendALPVectorEnvelope(out []byte, v *alpenc.Vector) []byte {
	out = binary.LittleEndian.AppendUint32(out, VectorMagic)
	out = append(out, byte(SchemeALP))
	return marshalALPVector(out, v)
}

// alpEnvelopeSize returns the exact byte length of an ALPV envelope for
// a decimal-scheme vector of n values packed at the given width with
// exc exceptions: magic(4) + scheme(1) + E,F(2) + N(2) + base(8) +
// width(1) + payload words + excCount(2) + exc positions(2 each) +
// exc values(8 each).
func alpEnvelopeSize(n int, width uint, exc int) int {
	return 4 + 1 + 2 + 2 + 8 + 1 + 8*bitpack.WordCount(n, width) + 2 + 10*exc
}

// vectorEnvelopeSize returns the exact byte length MarshalVector(i)
// would produce, without building it — the scan frame policy compares
// candidate encodings by size before committing to one.
func (c *Column) vectorEnvelopeSize(i int) int {
	g := i / vector.RowGroupVectors
	local := i % vector.RowGroupVectors
	rg := &c.RowGroups[g]
	if rg.Scheme == SchemeRD {
		v := &rg.RDVectors[local]
		// magic + scheme + P/CodeWidth/dictLen + dict + N +
		// right words + code words + excCount + 2*exc + 2*exc.
		return 4 + 1 + 3 + 2*len(rg.RD.Dict) + 2 +
			8*len(v.RightWords) + 8*len(v.CodeWords) + 2 + 4*len(v.ExcPos)
	}
	v := &rg.Vectors[local]
	return alpEnvelopeSize(v.N, v.Ints.Width, len(v.ExcPos))
}

// vectorEnvelope is the parsed form of an ALPV envelope: one scheme is
// populated according to Scheme. RD envelopes carry their own decoder
// (cut position, code width, dictionary) so they stay independently
// decodable.
type vectorEnvelope struct {
	Scheme Scheme
	ALP    alpenc.Vector
	RD     alprd.Vector
	RDEnc  *alprd.Encoder
}

// parseVectorEnvelope parses an ALPV envelope from r, leaving r
// positioned right after the envelope. Trailing bytes are the caller's
// concern: both a standalone envelope and a scan-frame payload place
// the envelope last and reject leftovers themselves.
func parseVectorEnvelope(r *reader) (vectorEnvelope, error) {
	var env vectorEnvelope
	if r.u32() != VectorMagic {
		if r.err != nil {
			return env, r.err
		}
		return env, corrupt("bad vector envelope magic")
	}
	env.Scheme = Scheme(r.u8())
	if r.err != nil {
		return env, r.err
	}
	if env.Scheme > SchemeRD {
		return env, corrupt("unknown scheme %d", env.Scheme)
	}
	if env.Scheme == SchemeRD {
		enc, err := unmarshalRDEncoder[float64](r)
		if err != nil {
			return env, err
		}
		env.RDEnc = enc
		env.RD, err = unmarshalRDVector(r, enc.P, enc.CodeWidth)
		return env, err
	}
	v, err := unmarshalALPVector[float64](r)
	if err != nil {
		return env, err
	}
	env.ALP = v
	return env, nil
}

// UnmarshalVector parses a single-vector envelope produced by
// MarshalVector and decodes it into dst (room for vector.Size values),
// returning the number of values written. scratch must hold
// vector.Size int64s, or be nil to allocate per call.
func UnmarshalVector(data []byte, dst []float64, scratch []int64) (int, error) {
	r := &reader{data: data}
	env, err := parseVectorEnvelope(r)
	if err != nil {
		return 0, err
	}
	if r.pos != len(r.data) {
		return 0, corrupt("%d trailing bytes after vector payload", len(r.data)-r.pos)
	}
	if scratch == nil {
		scratch = make([]int64, vector.Size)
	}
	if env.Scheme == SchemeRD {
		if len(dst) < env.RD.N {
			return 0, corrupt("destination holds %d values, vector has %d", len(dst), env.RD.N)
		}
		alprd.DecodeVector(env.RDEnc, &env.RD, dst[:env.RD.N])
		return env.RD.N, nil
	}
	if len(dst) < env.ALP.N {
		return 0, corrupt("destination holds %d values, vector has %d", len(dst), env.ALP.N)
	}
	env.ALP.Decode(dst[:env.ALP.N], scratch)
	return env.ALP.N, nil
}
