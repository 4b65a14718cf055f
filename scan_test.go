package alp

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"runtime"
	"testing"

	"github.com/goalp/alp/internal/dataset"
	"github.com/goalp/alp/internal/format"
)

// allocatedBy returns the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeScanStreamAllocatesOnce decodes a full-range scan of two
// City-Temp row-groups: the result is sized once from the frame
// headers, so the decode allocates little beyond its 8 bytes per row.
func TestDecodeScanStreamAllocatesOnce(t *testing.T) {
	d, _ := dataset.ByName("City-Temp")
	values := d.Generate(2 * RowGroupSize)
	stream, rows := Compress(values).BuildScanStream(math.Inf(-1), math.Inf(1))
	var got []float64
	var err error
	alloc := allocatedBy(func() { got, err = DecodeScanStream(stream) })
	if err != nil || len(got) != rows || rows != len(values) {
		t.Fatalf("DecodeScanStream: %d rows, err %v; want %d", len(got), err, rows)
	}
	if limit := uint64(1.25 * 8 * float64(rows)); alloc >= limit {
		t.Fatalf("decoding %d rows allocated %d bytes, limit %d", rows, alloc, limit)
	}
}

// TestForgedScanFrameClaimsAreClamped forges a 64 KiB stream of 13-byte
// dense frames under valid CRCs, each claiming 1,024 rows: the decoder
// must reject it without sizing a result from the claims, which no
// frame has the bytes to carry.
func TestForgedScanFrameClaimsAreClamped(t *testing.T) {
	// kind | payload length 4 | count 1024 | total 1024 | CRC-32C of
	// kind and payload.
	frame := []byte{byte(format.ScanFrameDense), 4, 0, 0, 0, 0, 4, 0, 4}
	crc := crc32.Checksum(append([]byte{frame[0]}, frame[5:]...), crc32.MakeTable(crc32.Castagnoli))
	frame = binary.LittleEndian.AppendUint32(frame, crc)
	stream := format.AppendScanStreamHeader(nil)
	for len(stream)+len(frame) <= 64<<10 {
		stream = append(stream, frame...)
	}
	var err error
	alloc := allocatedBy(func() { _, err = DecodeScanStream(stream) })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("forged dense frames: err = %v, want one wrapping ErrCorrupt", err)
	}
	if alloc >= 1<<20 {
		t.Fatalf("DecodeScanStream allocated %d bytes for a %d-byte forged stream", alloc, len(stream))
	}
}
