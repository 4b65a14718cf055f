// Package engine is a minimal vectorized query engine in the style of
// Tectorwise [23], used for the paper's end-to-end experiments (§4.3,
// Table 6 / Figure 6): a scan operator decompresses a column
// vector-at-a-time (1024 values) and feeds an aggregation operator,
// with morsel-driven parallelism across row-group-sized partitions.
//
// Every compression scheme under study is wrapped as a Relation whose
// partitions are independently decodable, mirroring the paper's setup
// where compressed blocks carry byte-offset metadata so threads can
// work on disjoint ranges.
package engine

import (
	"sync"
	"sync/atomic"

	"github.com/goalp/alp/internal/format"
	"github.com/goalp/alp/internal/obs"
	"github.com/goalp/alp/internal/vector"
)

// Partition is an independently decodable chunk of a compressed column.
type Partition interface {
	// Len returns the number of values in the partition.
	Len() int
	// Scan decompresses the partition vector-at-a-time into buf (which
	// has room for vector.Size values) and calls emit for each vector.
	Scan(buf []float64, emit func(vals []float64))
}

// Relation is a compressed column split into partitions.
type Relation struct {
	Name  string
	N     int
	Parts []Partition
}

// CompressedBytes sums the compressed footprint across partitions. ok
// is false when one or more partitions do not expose a size — the sum
// then covers only the partitions that do, so a benchmark comparing
// compression ratios can detect the undercount instead of silently
// reporting a partial figure.
func (r *Relation) CompressedBytes() (total int, ok bool) {
	ok = true
	for _, p := range r.Parts {
		if s, sized := p.(interface{ SizeBytes() int }); sized {
			total += s.SizeBytes()
		} else {
			ok = false
		}
	}
	return total, ok
}

// morsels runs fn(k, bufs) for every k in [0, n) on threads worker
// goroutines, morsel-driven: each worker atomically claims the next
// index and owns one set of scratch buffers. fn writes its result into
// slot k of a caller-owned slice, and the caller merges the slots in
// index order, so no result depends on which worker ran which index.
// This is the engine's only parallel loop.
func morsels(threads, n int, fn func(k int, bufs *filterBufs)) {
	if threads < 1 {
		threads = 1
	}
	o := obs.Active()
	o.ScanWorkers(threads)
	var next atomic.Int64
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bufs := newFilterBufs()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				o.MorselClaim()
				fn(k, bufs)
			}
		}()
	}
	wg.Wait()
}

// Scan decompresses the whole relation with the given parallelism and
// returns the number of tuples scanned. The decompressed vectors are
// materialized into the per-worker buffer and discarded, like a scan
// feeding a no-op consumer.
func (r *Relation) Scan(threads int) int {
	counts := make([]int, len(r.Parts))
	morsels(threads, len(r.Parts), func(k int, bufs *filterBufs) {
		r.Parts[k].Scan(bufs.out, func(vals []float64) { counts[k] += len(vals) })
	})
	total := 0
	for _, c := range counts {
		total += c
	}
	return total
}

// Sum runs SELECT SUM(col): scan feeding a vectorized aggregation.
// Each partition sums from zero in position order and the partition
// sums add in partition order, so the result is the same at any
// thread count.
func (r *Relation) Sum(threads int) float64 {
	sums := make([]float64, len(r.Parts))
	morsels(threads, len(r.Parts), func(k int, bufs *filterBufs) {
		r.Parts[k].Scan(bufs.out, func(vals []float64) {
			s := sums[k]
			for _, v := range vals {
				s += v
			}
			sums[k] = s
		})
	})
	var total float64
	for _, s := range sums {
		total += s
	}
	return total
}

// partitionRanges splits n values into row-group-sized ranges.
func partitionRanges(n int) [][2]int {
	var out [][2]int
	for lo := 0; lo < n; lo += vector.RowGroupSize {
		hi := lo + vector.RowGroupSize
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// ---- ALP ----

// alpPartition is a column of its own, one row-group long; its scan
// and pushdown operators come from vecRange (pushdown.go).
type alpPartition struct {
	vecRange
}

func (p *alpPartition) Len() int { return p.col.N }

func (p *alpPartition) SizeBytes() int { return p.col.SizeBits() / 8 }

// BuildALP compresses values with ALP into a partitioned relation.
func BuildALP(values []float64) *Relation {
	r := &Relation{Name: "ALP", N: len(values)}
	for _, rg := range partitionRanges(len(values)) {
		col := format.EncodeColumn(values[rg[0]:rg[1]])
		r.Parts = append(r.Parts, &alpPartition{vecRange{col: col, end: col.NumVectors()}})
	}
	return r
}

// ---- Uncompressed ----

type rawPartition struct {
	values []float64
}

func (p *rawPartition) Len() int { return len(p.values) }

func (p *rawPartition) SizeBytes() int { return len(p.values) * 8 }

func (p *rawPartition) Scan(buf []float64, emit func([]float64)) {
	for lo := 0; lo < len(p.values); lo += vector.Size {
		hi := lo + vector.Size
		if hi > len(p.values) {
			hi = len(p.values)
		}
		n := copy(buf, p.values[lo:hi])
		emit(buf[:n])
	}
}

// BuildUncompressed wraps values without compression; the scan copies
// each vector into the operator buffer like a real scan would.
func BuildUncompressed(values []float64) *Relation {
	r := &Relation{Name: "Uncompressed", N: len(values)}
	for _, rg := range partitionRanges(len(values)) {
		r.Parts = append(r.Parts, &rawPartition{values: values[rg[0]:rg[1]]})
	}
	return r
}

// ---- Stream codecs (Gorilla, Chimp, Chimp128, Patas, Elf, PDE, GP) ----

// streamPartition holds a block compressed with a sequential codec: the
// whole partition must be decoded front-to-back (no vector skipping),
// but partitions are independent so multi-core scans still parallelize.
type streamPartition struct {
	n          int
	data       []byte
	decompress func(dst []float64, data []byte) error
}

func (p *streamPartition) Len() int { return p.n }

func (p *streamPartition) SizeBytes() int { return len(p.data) }

func (p *streamPartition) Scan(buf []float64, emit func([]float64)) {
	// Sequential codecs cannot decode vector-at-a-time into a small
	// buffer: the whole partition is materialized, then emitted in
	// vector-sized chunks (this is the block-decompression cost the
	// paper describes for non-vectorized schemes).
	out := make([]float64, p.n)
	if err := p.decompress(out, p.data); err != nil {
		panic("engine: corrupt partition: " + err.Error())
	}
	for lo := 0; lo < p.n; lo += vector.Size {
		hi := lo + vector.Size
		if hi > p.n {
			hi = p.n
		}
		emit(out[lo:hi])
	}
}

// BuildStream compresses values partition-at-a-time with a sequential
// codec (compress returns the block bytes; decompress must fill dst).
func BuildStream(name string, values []float64,
	compress func(src []float64) []byte,
	decompress func(dst []float64, data []byte) error) *Relation {
	r := &Relation{Name: name, N: len(values)}
	for _, rg := range partitionRanges(len(values)) {
		part := values[rg[0]:rg[1]]
		r.Parts = append(r.Parts, &streamPartition{
			n:          len(part),
			data:       compress(part),
			decompress: decompress,
		})
	}
	return r
}

// SumRange runs SELECT SUM(col), COUNT(*) WHERE col BETWEEN lo AND hi
// with the given parallelism: FilterAgg over Between(lo, hi). ALP
// partitions push the predicate into the scan via their zone maps and
// skip non-qualifying vectors, each counting as one range scan; stream
// partitions must decompress everything and filter. The returned
// touched count (vectors examined) quantifies the push-down win.
func (r *Relation) SumRange(threads int, lo, hi float64) (sum float64, count, touched int) {
	o := obs.Active()
	for _, part := range r.Parts {
		if _, ok := part.(PushdownScanner); ok {
			o.RangeScan()
		}
	}
	a, touched := r.FilterAgg(threads, Between(lo, hi))
	return a.Sum, int(a.Count), touched
}
