// The selection-aware scan wire format: a served filtered scan encoded
// as a framed sequence of per-vector payloads that keeps the bytes on
// the wire proportional to the *compressed* size of the selection, not
// 8 bytes per selected row.
//
// Stream layout ("ALPS"):
//
//	u32 magic "ALPS" | u8 version (1)
//	frame*                                  one frame per vector with >= 1 match
//
// Frame layout:
//
//	u8 kind | u32 payloadLen | payload | u32 crc32c(kind || payload)
//
// Three payload encodings, chosen per vector by exact byte cost:
//
//   - dense (kind 2): u16 count | u16 total | selection bitmap
//     (SelWords(total) u64 words) | the vector's stored ALPV envelope,
//     verbatim. The server never unpacks the payload — it runs the
//     fused filter kernel for the bitmap and ships stored bytes; the
//     client runs the fused unpack+gather. Wins for dense selections,
//     where shipping the original packed vector once beats both raw
//     floats and a re-pack.
//   - repacked (kind 3): an ALPV envelope holding only the selected
//     rows, re-encoded under the vector's own (e, f) combination
//     (alpenc.RepackSelected), so the client decodes exactly the rows
//     it would have gathered locally. Wins for sparse selections:
//     count*width bits instead of total*width.
//   - raw (kind 1): the selected rows as little-endian float64s. The
//     floor encoding — always correct, never smaller than 8 bytes/row.
//     Wins below the size threshold where envelope overhead dominates
//     (a handful of rows), and for sparse selections of ALP_rd vectors,
//     which have no order-preserving integer domain to re-pack in.
//
// Every frame is independently checksummed (Castagnoli CRC32 over kind
// and payload) so a cut or corrupted stream fails loudly at the frame
// where it breaks; stream completion is framed by the transport's
// row-count trailer, which the client verifies against the decoded
// total.
package format

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"time"

	"github.com/goalp/alp/internal/alpenc"
	"github.com/goalp/alp/internal/alprd"
	"github.com/goalp/alp/internal/fastlanes"
	"github.com/goalp/alp/internal/obs"
	"github.com/goalp/alp/internal/vector"
)

// ScanMagic identifies a selection-aware scan stream ("ALPS"
// little-endian).
const ScanMagic = uint32(0x53504C41)

// ScanVersion is the current scan stream version.
const ScanVersion = 1

// ScanContentType is the media type of the selection-aware scan
// stream, the only body a served /scan answers with.
const ScanContentType = "application/x-alp-scan"

// ScanFrameKind tags one frame's payload encoding.
type ScanFrameKind uint8

const (
	// ScanFrameRaw is selected rows as raw little-endian float64s.
	ScanFrameRaw ScanFrameKind = 1
	// ScanFrameDense is the stored vector envelope plus a selection
	// bitmap; the client gathers.
	ScanFrameDense ScanFrameKind = 2
	// ScanFrameRepacked is a re-packed ALPV envelope of only the
	// selected rows.
	ScanFrameRepacked ScanFrameKind = 3
)

func (k ScanFrameKind) String() string {
	switch k {
	case ScanFrameRaw:
		return "raw"
	case ScanFrameDense:
		return "dense"
	case ScanFrameRepacked:
		return "repacked"
	}
	return "unknown"
}

// scanFrameOverhead is the fixed per-frame framing cost: kind (1) +
// payload length (4) + CRC (4).
const scanFrameOverhead = 9

// denseExtraSize is the dense payload's cost on top of the envelope:
// count (2) + total (2); the bitmap is sized from total.
const denseExtraSize = 4

// maxScanFramePayload bounds one frame's payload. A full 64-bit-wide
// vector with 1024 exceptions is ~18 KiB; anything past 64 KiB is
// corruption, and rejecting it early keeps a hostile length prefix from
// driving allocations.
const maxScanFramePayload = 64 << 10

// denseSelectivityNum/Den is the dense/sparse threshold: a selection
// covering at least half the vector ships the stored envelope + bitmap
// (the server does no re-encode work and the client's fused kernels do
// the gather); below it, a re-pack is considered. The raw floor is
// always costed against whichever of the two applies.
const (
	denseSelectivityNum = 1
	denseSelectivityDen = 2
)

var scanCRCTable = crc32.MakeTable(crc32.Castagnoli)

// frameCRC checksums one frame: the kind byte folded in front of the
// payload, so a bit-flipped kind cannot redirect a valid payload into
// the wrong decoder.
func frameCRC(kind ScanFrameKind, payload []byte) uint32 {
	crc := crc32.Update(0, scanCRCTable, []byte{byte(kind)})
	return crc32.Update(crc, scanCRCTable, payload)
}

// AppendScanStreamHeader appends the stream magic and version.
func AppendScanStreamHeader(out []byte) []byte {
	out = binary.LittleEndian.AppendUint32(out, ScanMagic)
	return append(out, ScanVersion)
}

// ScanStreamHeaderSize is the byte length of the stream header.
const ScanStreamHeaderSize = 5

// ScanWriter builds scan frames vector-at-a-time over one column. Not
// safe for concurrent use; all buffers are reused across calls, so a
// returned frame is valid only until the next Frame call.
type ScanWriter struct {
	col     *Column
	sel     [SelWords]uint64
	buf     []float64 // float scratch: RD decode, raw gather
	scratch []int64   // raw packed ints (Filter invariant)
	ints    []int64   // repack gather buffer
	frame   []byte    // frame under construction (header + payload + crc)
}

// NewScanWriter returns a writer for one column's scan frames.
func NewScanWriter(c *Column) *ScanWriter {
	return &ScanWriter{
		col:     c,
		buf:     make([]float64, vector.Size),
		scratch: make([]int64, vector.Size),
		ints:    make([]int64, vector.Size),
		frame:   make([]byte, scanFrameOverhead-4, 4096),
	}
}

// Frame evaluates the closed range [lo, hi] over vector i and encodes
// the matching rows as one wire frame, choosing the cheapest of the
// dense / repacked / raw encodings by exact byte size. It returns the
// frame bytes (nil when no row matches — vectors contribute no empty
// frames), the match count, the chosen kind, and whether the selection
// was computed by the encoded-domain pushdown kernel (false on the
// ALP_rd decode-then-filter path). The returned slice is reused by the
// next call.
func (w *ScanWriter) Frame(i int, lo, hi float64) (frame []byte, count int, kind ScanFrameKind, pushdown bool) {
	c := w.col
	g := i / vector.RowGroupVectors
	local := i % vector.RowGroupVectors
	rg := &c.RowGroups[g]
	w.frame = w.frame[:scanFrameOverhead-4] // room for kind + length, backfilled

	if rg.Scheme == SchemeALP {
		v := &rg.Vectors[local]
		intsValid := true // scratch holds raw packed ints
		if c.fullMatch(i, lo, hi) {
			// Metadata-only answer: every row qualifies and the payload
			// was never unpacked.
			setAllSel(w.sel[:], v.N)
			count = v.N
			intsValid = false
		} else {
			count = v.Filter(lo, hi, w.sel[:], w.scratch)
		}
		if count == 0 {
			return nil, 0, 0, true
		}
		envSize := c.vectorEnvelopeSize(i)
		denseCost := denseExtraSize + 8*fastlanes.SelWords(v.N) + envSize
		rawCost := 8 * count
		repackCost := -1
		if intsValid && count*denseSelectivityDen < v.N*denseSelectivityNum {
			// Sparse selection (below the dense threshold): cost the
			// re-pack with the original width — an upper bound, since
			// the selected range can only be narrower.
			repackCost = alpEnvelopeSize(count, v.Ints.Width, v.SelectedExceptions(w.sel[:]))
		}
		switch {
		case denseCost <= rawCost && (repackCost < 0 || denseCost <= repackCost):
			w.appendDensePayload(i, count, v.N)
			kind = ScanFrameDense
		case repackCost >= 0 && repackCost <= rawCost:
			w.appendRepackedPayload(v)
			kind = ScanFrameRepacked
		default:
			if intsValid {
				v.GatherSelected(w.sel[:], w.scratch, w.buf)
			} else {
				c.DecodeVector(i, w.buf, w.scratch)
			}
			w.appendRawPayload(count)
			kind = ScanFrameRaw
		}
		return w.finishFrame(kind), count, kind, true
	}

	// ALP_rd: no order-preserving integer domain, so the vector is
	// decoded and the selection computed with branch-free float
	// compares. The only encodings are dense (stored envelope + bitmap)
	// and raw (the selected rows, compacted by walking the bitmap's set
	// bits).
	v := &rg.RDVectors[local]
	alprd.DecodeVector(rg.RD, v, w.buf[:v.N])
	count = filterFloats(w.buf[:v.N], lo, hi, w.sel[:])
	if count == 0 {
		return nil, 0, 0, false
	}
	envSize := c.vectorEnvelopeSize(i)
	denseCost := denseExtraSize + 8*fastlanes.SelWords(v.N) + envSize
	rawCost := 8 * count
	if denseCost <= rawCost {
		w.appendDensePayload(i, count, v.N)
		kind = ScanFrameDense
	} else {
		gatherSelected(w.buf, w.buf[:v.N], w.sel[:])
		w.appendRawPayload(count)
		kind = ScanFrameRaw
	}
	return w.finishFrame(kind), count, kind, false
}

func (w *ScanWriter) appendDensePayload(i, count, total int) {
	w.frame = binary.LittleEndian.AppendUint16(w.frame, uint16(count))
	w.frame = binary.LittleEndian.AppendUint16(w.frame, uint16(total))
	for _, word := range w.sel[:fastlanes.SelWords(total)] {
		w.frame = binary.LittleEndian.AppendUint64(w.frame, word)
	}
	w.frame = w.col.appendVectorEnvelope(w.frame, i)
}

func (w *ScanWriter) appendRepackedPayload(v *alpenc.Vector) {
	// The re-pack is the only per-vector encode work on the scan path;
	// its (sampled) histogram shows what the sparse encoding costs the
	// server per vector.
	if o := obs.Active(); o.SampleStage(obs.HistStageRepack) {
		start := time.Now()
		rv := v.RepackSelected(w.sel[:], w.scratch, w.ints)
		w.frame = AppendALPVectorEnvelope(w.frame, &rv)
		o.Observe(obs.HistStageRepack, time.Since(start).Nanoseconds())
		return
	}
	rv := v.RepackSelected(w.sel[:], w.scratch, w.ints)
	w.frame = AppendALPVectorEnvelope(w.frame, &rv)
}

func (w *ScanWriter) appendRawPayload(count int) {
	for _, x := range w.buf[:count] {
		w.frame = binary.LittleEndian.AppendUint64(w.frame, math.Float64bits(x))
	}
}

// finishFrame backfills the kind and payload length and appends the
// CRC.
func (w *ScanWriter) finishFrame(kind ScanFrameKind) []byte {
	payload := w.frame[scanFrameOverhead-4:]
	w.frame[0] = byte(kind)
	binary.LittleEndian.PutUint32(w.frame[1:5], uint32(len(payload)))
	w.frame = binary.LittleEndian.AppendUint32(w.frame, frameCRC(kind, payload))
	return w.frame
}

// BuildScanStream encodes the complete selection-aware stream for
// [lo, hi] into one buffer, returning the stream and the total row
// count — the offline equivalent of the server's scan loop (zone-map
// skipping included), used by golden fixtures, fuzz seeds and the
// differential tests.
func BuildScanStream(c *Column, lo, hi float64) ([]byte, int) {
	out := AppendScanStreamHeader(nil)
	w := NewScanWriter(c)
	rows := 0
	for i := 0; i < c.NumVectors(); i++ {
		if c.Zones != nil && !c.Zones.MayContain(i, lo, hi) {
			continue
		}
		frame, n, _, _ := w.Frame(i, lo, hi)
		if frame != nil {
			out = append(out, frame...)
			rows += n
		}
	}
	return out, rows
}

// ScanDecoder decodes a selection-aware scan stream frame-at-a-time.
// Every structural invariant — magic, version, frame length, CRC,
// bitmap cardinality, envelope value counts — is validated, so a
// truncated or corrupted stream surfaces as ErrCorrupt at the frame
// where it breaks, never as a panic or a silently wrong row.
type ScanDecoder struct {
	data    []byte
	pos     int
	rows    int
	sel     [SelWords]uint64
	scratch []int64
	tmp     []float64 // full-vector buffer for dense RD gathers
	out     []float64 // frame output, reused across Next calls
}

// NewScanDecoder validates the stream header and returns a decoder
// positioned at the first frame.
func NewScanDecoder(data []byte) (*ScanDecoder, error) {
	if len(data) < ScanStreamHeaderSize {
		return nil, corrupt("scan stream header: have %d bytes, need %d", len(data), ScanStreamHeaderSize)
	}
	if binary.LittleEndian.Uint32(data) != ScanMagic {
		return nil, corrupt("bad scan stream magic")
	}
	if v := data[4]; v != ScanVersion {
		return nil, corrupt("unsupported scan stream version %d", v)
	}
	return &ScanDecoder{
		data:    data,
		pos:     ScanStreamHeaderSize,
		scratch: make([]int64, vector.Size),
		tmp:     make([]float64, vector.Size),
		out:     make([]float64, vector.Size),
	}, nil
}

// Rows returns the number of rows decoded so far.
func (d *ScanDecoder) Rows() int { return d.rows }

// minEnvelopeSize is the shortest ALPV envelope: an ALP_rd vector with
// cut position 0, code width 0, no dictionary and no exceptions.
const minEnvelopeSize = 12

// SizeHint returns the number of rows the remaining frames claim, read
// from their headers alone: payload length ÷ 8 for a raw frame, the
// count field for a dense frame and the envelope's N for a repacked
// frame. A frame counts only as many rows as its payload length can
// hold, and the walk stops at the first frame the stream cannot hold,
// so a forged header cannot claim more than the stream could decode
// to. For a valid stream the hint is exactly the row count; Next still
// checks everything the hint skips.
func (d *ScanDecoder) SizeHint() int {
	rows := 0
	for pos := d.pos; len(d.data)-pos >= scanFrameOverhead; {
		plen := int(binary.LittleEndian.Uint32(d.data[pos+1:]))
		if plen > maxScanFramePayload || len(d.data)-pos-scanFrameOverhead < plen {
			break
		}
		rows += frameClaim(ScanFrameKind(d.data[pos]), d.data[pos+5:pos+5+plen])
		pos += scanFrameOverhead + plen
	}
	return rows
}

// frameClaim returns the rows a frame's header claims, or 0 when its
// payload is too short to carry them.
func frameClaim(kind ScanFrameKind, payload []byte) int {
	switch kind {
	case ScanFrameRaw:
		if n := len(payload) / 8; n <= vector.Size {
			return n
		}
	case ScanFrameDense:
		// count | total | bitmap | an envelope of at least
		// minEnvelopeSize bytes.
		if len(payload) < denseExtraSize {
			return 0
		}
		count := int(binary.LittleEndian.Uint16(payload))
		total := int(binary.LittleEndian.Uint16(payload[2:]))
		if count <= total && total <= vector.Size &&
			len(payload) >= denseExtraSize+8*fastlanes.SelWords(total)+minEnvelopeSize {
			return count
		}
	case ScanFrameRepacked:
		// An ALPV envelope: N at byte 7, the FFOR width at byte 17.
		if len(payload) < alpEnvelopeSize(0, 0, 0) {
			return 0
		}
		n := int(binary.LittleEndian.Uint16(payload[7:]))
		if n <= vector.Size && len(payload) >= alpEnvelopeSize(n, uint(payload[17]), 0) {
			return n
		}
	}
	return 0
}

// Next decodes the next frame and returns its rows, in position order.
// The returned slice is reused by the next call. io.EOF signals a
// cleanly exhausted stream; any other error means the stream is
// corrupt or truncated mid-frame.
func (d *ScanDecoder) Next() ([]float64, error) {
	if d.pos == len(d.data) {
		return nil, io.EOF
	}
	o := obs.Active()
	var start time.Time
	sampled := o.SampleStage(obs.HistStageScanDecode)
	if sampled {
		start = time.Now()
	}
	rest := len(d.data) - d.pos
	if rest < scanFrameOverhead {
		return nil, corrupt("truncated scan frame: %d trailing bytes, frame needs >= %d", rest, scanFrameOverhead)
	}
	kind := ScanFrameKind(d.data[d.pos])
	plen := int(binary.LittleEndian.Uint32(d.data[d.pos+1:]))
	if plen > maxScanFramePayload {
		return nil, corrupt("scan frame payload %d exceeds %d-byte cap", plen, maxScanFramePayload)
	}
	if rest-scanFrameOverhead < plen {
		return nil, corrupt("truncated scan frame: payload of %d with %d bytes left", plen, rest-scanFrameOverhead+4)
	}
	payload := d.data[d.pos+5 : d.pos+5+plen]
	wantCRC := binary.LittleEndian.Uint32(d.data[d.pos+5+plen:])
	if got := frameCRC(kind, payload); got != wantCRC {
		return nil, corrupt("scan frame CRC mismatch (got %08x, stored %08x)", got, wantCRC)
	}
	d.pos += scanFrameOverhead + plen

	var out []float64
	var err error
	switch kind {
	case ScanFrameRaw:
		out, err = d.decodeRaw(payload)
	case ScanFrameRepacked:
		out, err = d.decodeRepacked(payload)
	case ScanFrameDense:
		out, err = d.decodeDense(payload)
	default:
		return nil, corrupt("unknown scan frame kind %d", kind)
	}
	if err != nil {
		return nil, err
	}
	d.rows += len(out)
	if sampled {
		o.Observe(obs.HistStageScanDecode, time.Since(start).Nanoseconds())
	}
	return out, nil
}

func (d *ScanDecoder) decodeRaw(payload []byte) ([]float64, error) {
	if len(payload) == 0 || len(payload)%8 != 0 {
		return nil, corrupt("raw scan frame payload of %d bytes", len(payload))
	}
	n := len(payload) / 8
	if n > vector.Size {
		return nil, corrupt("raw scan frame holds %d rows, vector max is %d", n, vector.Size)
	}
	for i := 0; i < n; i++ {
		d.out[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[i*8:]))
	}
	return d.out[:n], nil
}

func (d *ScanDecoder) decodeRepacked(payload []byte) ([]float64, error) {
	r := &reader{data: payload}
	env, err := parseVectorEnvelope(r)
	if err != nil {
		return nil, err
	}
	if r.pos != len(payload) {
		return nil, corrupt("%d trailing bytes in repacked scan frame", len(payload)-r.pos)
	}
	if env.Scheme != SchemeALP {
		// The server only re-packs decimal-scheme vectors; an RD
		// envelope here means the frame was tampered with.
		return nil, corrupt("repacked scan frame with scheme %v", env.Scheme)
	}
	env.ALP.Decode(d.out[:env.ALP.N], d.scratch)
	return d.out[:env.ALP.N], nil
}

func (d *ScanDecoder) decodeDense(payload []byte) ([]float64, error) {
	if len(payload) < denseExtraSize {
		return nil, corrupt("dense scan frame payload of %d bytes", len(payload))
	}
	count := int(binary.LittleEndian.Uint16(payload))
	total := int(binary.LittleEndian.Uint16(payload[2:]))
	if total < 1 || total > vector.Size {
		return nil, corrupt("dense scan frame total %d", total)
	}
	if count < 1 || count > total {
		return nil, corrupt("dense scan frame count %d of %d", count, total)
	}
	nw := fastlanes.SelWords(total)
	if len(payload) < denseExtraSize+8*nw {
		return nil, corrupt("dense scan frame bitmap truncated")
	}
	pop := 0
	for i := 0; i < nw; i++ {
		d.sel[i] = binary.LittleEndian.Uint64(payload[denseExtraSize+8*i:])
		pop += bits.OnesCount64(d.sel[i])
	}
	if r := total & 63; r != 0 && d.sel[nw-1]>>uint(r) != 0 {
		return nil, corrupt("dense scan frame bitmap sets bits past row %d", total)
	}
	if pop != count {
		return nil, corrupt("dense scan frame bitmap cardinality %d, header says %d", pop, count)
	}
	r := &reader{data: payload, pos: denseExtraSize + 8*nw}
	env, err := parseVectorEnvelope(r)
	if err != nil {
		return nil, err
	}
	if r.pos != len(payload) {
		return nil, corrupt("%d trailing bytes in dense scan frame", len(payload)-r.pos)
	}
	if env.Scheme == SchemeRD {
		if env.RD.N != total {
			return nil, corrupt("dense scan frame envelope holds %d rows, header says %d", env.RD.N, total)
		}
		if count == total {
			// Full match: every row qualifies, skip the bitmap gather.
			alprd.DecodeVector(env.RDEnc, &env.RD, d.out[:total])
			return d.out[:total], nil
		}
		alprd.DecodeVector(env.RDEnc, &env.RD, d.tmp[:total])
		return d.out[:gatherSelected(d.out, d.tmp[:total], d.sel[:])], nil
	}
	if env.ALP.N != total {
		return nil, corrupt("dense scan frame envelope holds %d rows, header says %d", env.ALP.N, total)
	}
	if count == total {
		// Full match: the whole-vector fused decode beats a gather over
		// an all-set bitmap.
		env.ALP.Decode(d.out[:total], d.scratch)
		return d.out[:total], nil
	}
	// The fused client path: unpack the raw packed integers once, then
	// gather only the selected rows to floats — the same kernels a
	// local pushdown scan runs.
	env.ALP.Ints.UnpackRaw(d.scratch[:total])
	n := env.ALP.GatherSelected(d.sel[:], d.scratch, d.out)
	return d.out[:n], nil
}
