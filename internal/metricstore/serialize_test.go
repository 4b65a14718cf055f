package metricstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	alp "github.com/goalp/alp"
)

// TestSnapshotRoundTrip serializes a store mid-life (sealed windows
// plus a partial hot tail) and checks the restored store answers Raw
// and Query bit-identically to the original.
func TestSnapshotRoundTrip(t *testing.T) {
	seq := genSeq(3, 150, 25_000, -1)
	st, _ := feed(t, seq, Options{WindowSamples: 64, HistogramBuckets: true})

	var buf bytes.Buffer
	n, err := st.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	back, err := ReadStore(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	ss, bs := st.Stats(), back.Stats()
	if bs.Series != ss.Series || bs.SealedWindows != ss.SealedWindows ||
		bs.SealedSamples != ss.SealedSamples || bs.HotSamples != ss.HotSamples ||
		bs.Scrapes != ss.Scrapes || bs.SealedBytes != ss.SealedBytes {
		t.Fatalf("restored stats %+v\n  original %+v", bs, ss)
	}
	if back.Interval() != st.Interval() {
		t.Fatalf("restored interval %v, want %v", back.Interval(), st.Interval())
	}

	for _, m := range []string{"server_requests", "lat_scan_bucket3", "stage_encode_sum_ns"} {
		ts1, v1, err := st.Raw(m)
		if err != nil {
			t.Fatal(err)
		}
		ts2, v2, err := back.Raw(m)
		if err != nil {
			t.Fatal(err)
		}
		if len(ts1) != len(ts2) {
			t.Fatalf("%s: restored %d samples, want %d", m, len(ts2), len(ts1))
		}
		for i := range ts1 {
			if math.Float64bits(ts1[i]) != math.Float64bits(ts2[i]) ||
				math.Float64bits(v1[i]) != math.Float64bits(v2[i]) {
				t.Fatalf("%s: sample %d diverged after round-trip", m, i)
			}
		}
	}

	first, last := seq.ts[0], seq.ts[len(seq.ts)-1]
	for _, agg := range allAggs {
		p1, err := st.Query("vectors_decoded", first, last+1, 500*time.Millisecond, agg)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := back.Query("vectors_decoded", first, last+1, 500*time.Millisecond, agg)
		if err != nil {
			t.Fatal(err)
		}
		diffPoints(t, "roundtrip/"+agg.String(), p1, p2)
	}

	// A second serialization of the restored store is byte-identical:
	// the format has no nondeterminism.
	var buf2 bytes.Buffer
	if _, err := back.WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-serialized snapshot differs from the original bytes")
	}
}

// TestSnapshotCorruption checks every guard: magic, CRC, truncation,
// trailing garbage, and an interior bit flip.
func TestSnapshotCorruption(t *testing.T) {
	seq := genSeq(4, 40, 10_000, -1)
	st, _ := feed(t, seq, Options{WindowSamples: 16})
	var buf bytes.Buffer
	if _, err := st.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	if _, err := ReadStore(nil); !errors.Is(err, alp.ErrCorrupt) {
		t.Fatalf("empty snapshot: %v, want ErrCorrupt", err)
	}
	bad := append([]byte(nil), good...)
	copy(bad, "NOPE")
	if _, err := ReadStore(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: %v", err)
	}
	for _, cut := range []int{len(good) - 1, len(good) / 2, 10} {
		if _, err := ReadStore(good[:cut]); !errors.Is(err, alp.ErrCorrupt) {
			t.Fatalf("truncation at %d: %v, want ErrCorrupt", cut, err)
		}
	}
	bad = append(append([]byte(nil), good...), 0)
	if _, err := ReadStore(bad); !errors.Is(err, alp.ErrCorrupt) {
		t.Fatalf("trailing garbage: %v, want ErrCorrupt", err)
	}
	// Interior flips must be caught by the CRC, never by a panic.
	for _, pos := range []int{8, 20, len(good) / 3, 2 * len(good) / 3, len(good) - 5} {
		bad = append([]byte(nil), good...)
		bad[pos] ^= 0x40
		if _, err := ReadStore(bad); err == nil || !strings.Contains(err.Error(), "CRC") {
			t.Fatalf("bit flip at %d: %v", pos, err)
		}
	}
}

// TestForgedHotTailCountIsRejected forges an empty store's hot-tail
// count to 2^20 samples under a valid CRC: ReadStore must reject it as
// corrupt from the bytes left, before allocating for the samples.
func TestForgedHotTailCountIsRejected(t *testing.T) {
	var buf bytes.Buffer
	if _, err := New(Options{}).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	forged := buf.Bytes()
	body := forged[:len(forged)-4]
	// An empty store ends with its hot-tail count, then the CRC.
	binary.LittleEndian.PutUint32(body[len(body)-4:], 1<<20)
	binary.LittleEndian.PutUint32(forged[len(body):], crc32.Checksum(body, crcTable))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadStore(forged)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, alp.ErrCorrupt) {
		t.Fatalf("forged hot-tail count: err = %v, want one wrapping ErrCorrupt", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("ReadStore allocated %d bytes for a %d-byte forged snapshot", alloc, len(forged))
	}
}

// TestRestoredStoreCanResume restores a snapshot and keeps scraping:
// the first post-restore scrape is a "first scrape" (totals, not
// deltas) and the store stays queryable across the seam.
func TestRestoredStoreCanResume(t *testing.T) {
	seq := genSeq(6, 30, 10_000, -1)
	st, _ := feed(t, seq, Options{WindowSamples: 16})
	var buf bytes.Buffer
	if _, err := st.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadStore(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	more := genSeq(60, 10, 10_000, -1)
	for j := 0; j < len(more.ts); j++ {
		ts := seq.ts[len(seq.ts)-1] + int64(j+1)*10_000
		back.mu.Lock()
		back.appendLocked(float64(ts), more.snaps[j])
		back.mu.Unlock()
	}
	s := back.Stats()
	if s.Scrapes != int64(len(seq.ts)+len(more.ts)) {
		t.Fatalf("resumed store scrapes = %d, want %d", s.Scrapes, len(seq.ts)+len(more.ts))
	}
	pts, err := back.Query("server_requests", seq.ts[0], s.LatestUs+1, 0, AggSum)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Count != int64(len(seq.ts)+len(more.ts)) {
		t.Fatalf("resumed query covered %v, want all %d samples", pts, len(seq.ts)+len(more.ts))
	}
}

// FuzzReadStore fuzzes the body of an ALPM snapshot and appends a
// recomputed CRC, so mutations reach the parser instead of failing the
// checksum: ReadStore must never panic, every error must wrap
// ErrCorrupt, and an accepted store must serialize again.
func FuzzReadStore(f *testing.F) {
	body := func(st *Store) []byte {
		var buf bytes.Buffer
		if _, err := st.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()[:buf.Len()-4]
	}
	f.Add(body(New(Options{})))
	// One sealed window of 16 scrapes plus a hot tail of 4.
	st, _ := feed(f, genSeq(5, 20, 10_000, -1), Options{WindowSamples: 16})
	f.Add(body(st))
	f.Fuzz(func(t *testing.T, body []byte) {
		data := binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.Checksum(body, crcTable))
		st, err := ReadStore(data)
		if err != nil {
			if !errors.Is(err, alp.ErrCorrupt) {
				t.Fatalf("ReadStore error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		st.Stats()
		if _, err := st.WriteTo(io.Discard); err != nil {
			t.Fatalf("accepted snapshot does not serialize: %v", err)
		}
	})
}
