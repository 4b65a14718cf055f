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

// run executes fn over all partitions with the given number of worker
// goroutines, morsel-driven: workers atomically claim the next
// partition index.
func (r *Relation) run(threads int, fn func(p Partition, buf []float64, acc *float64)) float64 {
	if threads < 1 {
		threads = 1
	}
	o := obs.Active()
	o.ScanWorkers(threads)
	var next atomic.Int64
	results := make([]float64, threads)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			buf := make([]float64, vector.Size)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(r.Parts) {
					return
				}
				o.MorselClaim()
				fn(r.Parts[i], buf, &results[t])
			}
		}(t)
	}
	wg.Wait()
	var total float64
	for _, v := range results {
		total += v
	}
	return total
}

// Scan decompresses the whole relation with the given parallelism and
// returns the number of tuples scanned. The decompressed vectors are
// materialized into the per-worker buffer and discarded, like a scan
// feeding a no-op consumer.
func (r *Relation) Scan(threads int) int {
	n := r.run(threads, func(p Partition, buf []float64, acc *float64) {
		p.Scan(buf, func(vals []float64) {
			*acc += float64(len(vals))
		})
	})
	return int(n)
}

// Sum runs SELECT SUM(col): scan feeding a vectorized aggregation.
func (r *Relation) Sum(threads int) float64 {
	return r.run(threads, func(p Partition, buf []float64, acc *float64) {
		p.Scan(buf, func(vals []float64) {
			s := 0.0
			for _, v := range vals {
				s += v
			}
			*acc += s
		})
	})
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

// RangeScanner is implemented by partitions that can answer a range
// predicate with vector skipping (zone-map push-down). Partitions that
// cannot skip fall back to a full scan plus filter.
type RangeScanner interface {
	// SumRange returns the sum and count of values in [lo, hi], plus
	// the number of vectors examined (not skipped).
	SumRange(lo, hi float64) (sum float64, count, touched int)
}

// SumRange runs SELECT SUM(col), COUNT(*) WHERE col BETWEEN lo AND hi
// with the given parallelism. ALP partitions push the predicate into
// the scan via their zone maps and skip non-qualifying vectors; stream
// partitions must decompress everything and filter. The returned
// touched count (vectors examined) quantifies the push-down win.
func (r *Relation) SumRange(threads int, lo, hi float64) (sum float64, count, touched int) {
	if threads < 1 {
		threads = 1
	}
	o := obs.Active()
	o.ScanWorkers(threads)
	var next atomic.Int64
	type acc struct {
		sum            float64
		count, touched int
	}
	results := make([]acc, threads)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			buf := make([]float64, vector.Size)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(r.Parts) {
					return
				}
				o.MorselClaim()
				a := &results[t]
				if rs, ok := r.Parts[i].(RangeScanner); ok {
					s, c, tv := rs.SumRange(lo, hi)
					a.sum += s
					a.count += c
					a.touched += tv
					continue
				}
				r.Parts[i].Scan(buf, func(vals []float64) {
					a.touched++
					for _, v := range vals {
						if v >= lo && v <= hi {
							a.sum += v
							a.count++
						}
					}
				})
			}
		}(t)
	}
	wg.Wait()
	for i := range results {
		sum += results[i].sum
		count += results[i].count
		touched += results[i].touched
	}
	return sum, count, touched
}

// SumRange implements RangeScanner for ALP partitions via the column's
// zone maps.
func (p *alpPartition) SumRange(lo, hi float64) (float64, int, int) {
	return p.col.SumRange(lo, hi)
}
