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

// scanDecodeSlack bounds what DecodeScanStream allocates beyond its 8
// bytes per row: the decoder and its buffers, about 34 KB.
const scanDecodeSlack = 64 << 10

// TestDecodeScanStreamAllocatesOnce decodes full-range scans of 2 and
// of 20 City-Temp row-groups. The result is sized once from the frame
// headers, every frame decodes straight into it, and every envelope is
// parsed into the decoder's own word buffers, so beyond 8 bytes per row
// the decode allocates one fixed amount, whatever the frame count.
func TestDecodeScanStreamAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	d, _ := dataset.ByName("City-Temp")
	for _, rgs := range []int{2, 20} {
		values := d.Generate(rgs * RowGroupSize)
		stream, rows := Compress(values).BuildScanStream(math.Inf(-1), math.Inf(1))
		var got []float64
		var err error
		alloc := allocatedBy(func() { got, err = DecodeScanStream(stream) })
		if err != nil || len(got) != rows || rows != len(values) {
			t.Fatalf("DecodeScanStream: %d rows, err %v; want %d", len(got), err, rows)
		}
		if extra := int64(alloc) - 8*int64(rows); extra > scanDecodeSlack {
			t.Errorf("decoding %d rows of %d row-groups allocated %d bytes beyond 8 per row, slack %d",
				rows, rgs, extra, scanDecodeSlack)
		}
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
