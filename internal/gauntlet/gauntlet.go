// Package gauntlet is the cross-domain benchmark-and-regression
// subsystem: FCBench shows that no float codec wins across HPC, time
// series, observability and ML-weight workloads, which is exactly the
// adaptivity claim ALP makes — so every codec in the repo is run across
// every domain continuously, and a committed baseline turns performance
// drift into a failing check instead of an anecdote.
//
// Measure runs all nine codecs (alp, alp_rd, gorilla, chimp, chimp128,
// patas, elf, pde, gp) over four datasets per domain — three float64
// regimes plus the domain's widened-float32 cell — recording
// compression ratio (bits/value) and compress / decompress / filter
// throughput in MV/s, plus one served end-to-end ALPS scan per domain
// through a loopback HTTP server. Noise control is median-of-K: each
// metric is the median of Options.Reps independent measurement windows
// and the document records the worst observed relative half-spread as
// its noise bound, which the comparator (compare.go) adds to its
// regression threshold.
//
// The output is a schema-versioned, dated BENCH_gauntlet.json written
// by `make gauntlet` (cmd/alpgauntlet); `make gauntlet-check` re-runs
// the measurement and fails with a per-metric diff on >10% throughput
// or >2% ratio regression against the committed baseline.
package gauntlet

import (
	"context"
	"fmt"
	"io"
	"math"
	mathbits "math/bits"
	"net/http/httptest"
	"runtime"
	"text/tabwriter"
	"time"

	"github.com/goalp/alp/client"
	"github.com/goalp/alp/internal/alprd"
	"github.com/goalp/alp/internal/bench"
	"github.com/goalp/alp/internal/dataset"
	"github.com/goalp/alp/internal/engine"
	"github.com/goalp/alp/internal/format"
	"github.com/goalp/alp/internal/server"
	"github.com/goalp/alp/internal/vector"
)

// SchemaVersion is the BENCH_gauntlet.json document schema. Bump it on
// any field change; the comparator refuses to diff across versions.
const SchemaVersion = 1

// Options controls a gauntlet run.
type Options struct {
	N      int           // values per dataset
	MinDur time.Duration // minimum length of one measurement window
	Reps   int           // windows per metric (the K in median-of-K)
	// Domains restricts the run to the named domains; nil means all.
	Domains []string
}

// DefaultOptions is the `make gauntlet` configuration: two row-groups
// per dataset and median-of-5 windows of >= 10ms each.
func DefaultOptions() Options {
	return Options{N: dataset.DefaultN, MinDur: 10 * time.Millisecond, Reps: 5}
}

// Entry is one (dataset, codec) measurement. Throughputs are MV/s —
// millions of column values processed per wall second. FilterMVs is a
// single-threaded filtered aggregate over the middle half of the value
// range: the encoded-domain pushdown path for alp, decode-then-filter
// for codecs without one (the honest comparison — that is what a query
// on that codec costs).
type Entry struct {
	Dataset       string  `json:"dataset"`
	Codec         string  `json:"codec"`
	BitsPerValue  float64 `json:"bits_per_value"`
	CompressMVs   float64 `json:"compress_mvs"`
	DecompressMVs float64 `json:"decompress_mvs"`
	FilterMVs     float64 `json:"filter_mvs"`
}

// ServedScan is the per-domain end-to-end point: the domain's first
// dataset ingested into an alpserved registry over loopback HTTP and
// scanned through the negotiated ALPS wire with a middle-half
// predicate, decoded client-side.
type ServedScan struct {
	Dataset string  `json:"dataset"`
	Rows    int     `json:"rows"`
	ScanMVs float64 `json:"scan_mvs"`
}

// DomainResult groups one domain's entries.
type DomainResult struct {
	Domain     string      `json:"domain"`
	Entries    []Entry     `json:"entries"`
	ServedScan *ServedScan `json:"served_scan,omitempty"`
}

// Doc is the whole BENCH_gauntlet.json document.
type Doc struct {
	SchemaVersion int     `json:"schema_version"`
	Date          string  `json:"date"`
	GoVersion     string  `json:"go_version"`
	GOOS          string  `json:"goos"`
	GOARCH        string  `json:"goarch"`
	CPUs          int     `json:"cpus"`
	N             int     `json:"values_per_dataset"`
	Repetitions   int     `json:"repetitions"`
	NoiseBound    float64 `json:"noise_bound"`
	// CalibrationMVs is the throughput of a fixed pure-CPU reference
	// kernel measured alongside the codecs (see calibrate). The
	// comparator rescales baseline throughputs by the two documents'
	// calibration ratio, so a machine-wide speed shift between the
	// baseline run and the fresh run — frequency scaling, a noisy
	// neighbour — cancels out instead of reading as a regression. The
	// kernel is not part of the code under test, so per-codec
	// regressions survive the normalization intact.
	CalibrationMVs float64        `json:"calibration_mvs"`
	Domains        []DomainResult `json:"domains"`
}

// DomainSuite names the datasets one domain contributes to the run.
type DomainSuite struct {
	Domain   string
	Datasets []string
}

// Suite is the gauntlet's dataset matrix: three float64 datasets per
// domain, chosen to span the regimes inside each domain (for the paper
// domains: a low-precision walk, a high-precision walk and a
// duplicate-heavy column for time series; a zero-heavy workbook, a
// mixed-precision monetary column and a real-double coordinate column
// for db), plus the domain's float32 cell (dataset.Extended32) — the
// same fingerprint stored at single precision, appended last so each
// domain's served-scan point stays on its first float64 dataset.
func Suite() []DomainSuite {
	suites := []DomainSuite{
		{dataset.DomainHPC, []string{"HPC/msg-sweep3d", "HPC/num-brain", "HPC/turbulence"}},
		{dataset.DomainTimeSeries, []string{"City-Temp", "Basel-temp", "Stocks-USA"}},
		{dataset.DomainObservability, []string{"Obs/cpu-util", "Obs/latency-ms", "Obs/mem-rss"}},
		{dataset.DomainDB, []string{"Gov/10", "CMS/1", "POI-lat"}},
		{dataset.DomainML, []string{"ML/weights-f32", "ML/gradients", "ML/embeddings"}},
	}
	for _, d := range dataset.Extended32() {
		for i := range suites {
			if suites[i].Domain == d.Domain {
				suites[i].Datasets = append(suites[i].Datasets, d.Name)
			}
		}
	}
	return suites
}

// measureFn measures one codec on one dataset and returns the entry
// (Dataset left blank) plus the worst relative spread seen across its
// metrics.
type measureFn func(values []float64, lo, hi float64, opt Options) (Entry, float64)

type codec struct {
	Name    string
	measure measureFn
}

// codecs returns the nine codecs in canonical order — the same set as
// the cross-codec differential harness (difftest_test.go).
func codecs() []codec {
	list := []codec{
		{Name: "alp", measure: measureALP},
		{Name: "alp_rd", measure: measureALPRD},
	}
	for _, b := range bench.Baselines() {
		name := map[string]string{
			"Gorilla": "gorilla", "Chimp": "chimp", "Chimp128": "chimp128",
			"Patas": "patas", "PDE": "pde", "Elf": "elf", "Zstd*": "gp",
		}[b.Name]
		comp, decomp := b.Compress, b.Decompress
		list = append(list, codec{Name: name, measure: streamMeasurer(name, comp, decomp)})
	}
	return list
}

// CodecNames returns the nine codec names in run order.
func CodecNames() []string {
	var names []string
	for _, c := range codecs() {
		names = append(names, c.Name)
	}
	return names
}

// midRange returns the middle half of the observed value range — the
// shared filter predicate, selective enough that zone maps, kernels and
// exception patching all participate.
func midRange(values []float64) (lo, hi float64) {
	lo, hi = values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	quarter := (hi - lo) / 4
	return lo + quarter, hi - quarter
}

func mvs(n int, sec float64) float64 {
	if sec <= 0 {
		return 0
	}
	return float64(n) / sec / 1e6
}

// calibrationSink keeps the reference kernel's result observable so the
// compiler can't eliminate the loop.
var calibrationSink uint64

// calibrate times the fixed reference kernel: a xorshift-filled buffer
// folded with rotate-xor-add, pure CPU and frozen forever. Its absolute
// MV/s means nothing; only the ratio between two documents' values is
// used (machine-speed normalization in Compare).
func calibrate(opt Options) (calMVs, spread float64) {
	const n = 1 << 16
	buf := make([]uint64, n)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = x
	}
	sec, spread := bench.MeasureMedianSeconds(func() {
		s := uint64(0)
		for _, v := range buf {
			s += mathbits.RotateLeft64(v^s, 13)
		}
		calibrationSink += s
	}, opt.MinDur, opt.Reps)
	return mvs(n, sec), spread
}

// measureALP measures the adaptive format path: full-column encode
// (sampling included — that is what ingest costs), vector-at-a-time
// fused decode into a preallocated buffer, and the encoded-domain
// pushdown aggregate.
func measureALP(values []float64, lo, hi float64, opt Options) (Entry, float64) {
	col := format.EncodeColumn(values)
	dst := make([]float64, len(values))
	scratch := make([]int64, vector.Size)
	nv := col.NumVectors()

	compSec, s1 := bench.MeasureMedianSeconds(func() { format.EncodeColumn(values) }, opt.MinDur, opt.Reps)
	decSec, s2 := bench.MeasureMedianSeconds(func() {
		off := 0
		for i := 0; i < nv; i++ {
			off += col.DecodeVector(i, dst[off:], scratch)
		}
	}, opt.MinDur, opt.Reps)

	rel := engine.BuildALP(values)
	pred := engine.Between(lo, hi)
	filtSec, s3 := bench.MeasureMedianSeconds(func() { rel.FilterAgg(1, pred) }, opt.MinDur, opt.Reps)

	return Entry{
		Codec:         "alp",
		BitsPerValue:  col.BitsPerValue(),
		CompressMVs:   mvs(len(values), compSec),
		DecompressMVs: mvs(len(values), decSec),
		FilterMVs:     mvs(len(values), filtSec),
	}, math.Max(s1, math.Max(s2, s3))
}

// measureALPRD drives the ALP_rd scheme directly (not via the sampler),
// so every domain exercises the real-double cutter even where the
// format layer would pick the decimal scheme. Row-group sampling runs
// once up front and is excluded, as in the paper's §4.2; the filter is
// decode-then-filter — rd has no encoded-domain pushdown.
func measureALPRD(values []float64, lo, hi float64, opt Options) (Entry, float64) {
	n := len(values)
	enc := alprd.Sample(values)
	nv := vector.VectorsIn(n)
	vecs := make([]alprd.Vector, nv)
	encodeAll := func() {
		for i := 0; i < nv; i++ {
			vlo, vhi := vector.Bounds(i, n)
			vecs[i] = alprd.EncodeVector(enc, values[vlo:vhi])
		}
	}
	encodeAll()
	bits := float64(enc.HeaderBits())
	for i := range vecs {
		bits += float64(enc.SizeBits(&vecs[i]))
	}

	dst := make([]float64, n)
	decodeAll := func() {
		for i := 0; i < nv; i++ {
			vlo, vhi := vector.Bounds(i, n)
			alprd.DecodeVector(enc, &vecs[i], dst[vlo:vhi])
		}
	}

	compSec, s1 := bench.MeasureMedianSeconds(encodeAll, opt.MinDur, opt.Reps)
	decSec, s2 := bench.MeasureMedianSeconds(decodeAll, opt.MinDur, opt.Reps)
	filtSec, s3 := bench.MeasureMedianSeconds(func() {
		decodeAll()
		sum, count := 0.0, 0
		for _, v := range dst {
			if v >= lo && v <= hi {
				sum += v
				count++
			}
		}
		_ = sum
		_ = count
	}, opt.MinDur, opt.Reps)

	return Entry{
		Codec:         "alp_rd",
		BitsPerValue:  bits / float64(n),
		CompressMVs:   mvs(n, compSec),
		DecompressMVs: mvs(n, decSec),
		FilterMVs:     mvs(n, filtSec),
	}, math.Max(s1, math.Max(s2, s3))
}

// streamMeasurer measures a byte-stream codec: whole-column compress,
// decompress into a preallocated buffer, and a filtered aggregate over
// an engine relation built from the codec (which decodes everything and
// filters in the float domain — those codecs' real query cost).
func streamMeasurer(name string, comp func([]float64) []byte, decomp func([]float64, []byte) error) measureFn {
	return func(values []float64, lo, hi float64, opt Options) (Entry, float64) {
		data := comp(values)
		dst := make([]float64, len(values))

		compSec, s1 := bench.MeasureMedianSeconds(func() { comp(values) }, opt.MinDur, opt.Reps)
		decSec, s2 := bench.MeasureMedianSeconds(func() {
			if err := decomp(dst, data); err != nil {
				panic(name + ": " + err.Error())
			}
		}, opt.MinDur, opt.Reps)

		rel := engine.BuildStream(name, values, comp, decomp)
		pred := engine.Between(lo, hi)
		filtSec, s3 := bench.MeasureMedianSeconds(func() { rel.FilterAgg(1, pred) }, opt.MinDur, opt.Reps)

		return Entry{
			Codec:         name,
			BitsPerValue:  float64(len(data)) * 8 / float64(len(values)),
			CompressMVs:   mvs(len(values), compSec),
			DecompressMVs: mvs(len(values), decSec),
			FilterMVs:     mvs(len(values), filtSec),
		}, math.Max(s1, math.Max(s2, s3))
	}
}

// Measure runs the gauntlet and returns the document. The served-scan
// points share one loopback httptest server; the requester is the typed
// client, so the measured path is exactly what a remote reader pays
// (HTTP + ALPS wire decode), minus a real network.
func Measure(opt Options) (*Doc, error) {
	if opt.N <= 0 {
		opt.N = dataset.DefaultN
	}
	if opt.Reps < 1 {
		opt.Reps = 1
	}
	if opt.MinDur <= 0 {
		opt.MinDur = 10 * time.Millisecond
	}
	want := func(domain string) bool {
		if len(opt.Domains) == 0 {
			return true
		}
		for _, d := range opt.Domains {
			if d == domain {
				return true
			}
		}
		return false
	}

	doc := &Doc{
		SchemaVersion: SchemaVersion,
		Date:          time.Now().UTC().Format("2006-01-02"),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		CPUs:          runtime.NumCPU(),
		N:             opt.N,
		Repetitions:   opt.Reps,
	}

	srv := server.New(server.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := client.New(ts.URL)
	ctx := context.Background()

	cal, calSpread := calibrate(opt)
	doc.CalibrationMVs = cal
	noise := calSpread
	for _, ds := range Suite() {
		if !want(ds.Domain) {
			continue
		}
		dr := DomainResult{Domain: ds.Domain}
		for di, name := range ds.Datasets {
			d, ok := dataset.ByName(name)
			if !ok {
				return nil, fmt.Errorf("gauntlet dataset %q not in registry", name)
			}
			values := d.Generate(opt.N)
			lo, hi := midRange(values)
			for _, c := range codecs() {
				e, spread := c.measure(values, lo, hi, opt)
				e.Dataset = name
				dr.Entries = append(dr.Entries, e)
				noise = math.Max(noise, spread)
			}
			if di == 0 {
				served, spread, err := measureServed(ctx, cl, ds.Domain, name, values, lo, hi, opt)
				if err != nil {
					return nil, fmt.Errorf("gauntlet served scan (%s): %w", ds.Domain, err)
				}
				dr.ServedScan = served
				noise = math.Max(noise, spread)
			}
		}
		doc.Domains = append(doc.Domains, dr)
	}
	// Round the recorded bound so the committed JSON diffs stay readable.
	doc.NoiseBound = math.Round(noise*1e4) / 1e4
	return doc, nil
}

// measureServed ingests the dataset as the domain's column and times
// client ALPS scans with the middle-half predicate, verifying the row
// count against the in-process engine on every call.
func measureServed(ctx context.Context, cl *client.Client, domain, name string, values []float64, lo, hi float64, opt Options) (*ServedScan, float64, error) {
	if _, err := cl.Ingest(ctx, domain, values); err != nil {
		return nil, 0, fmt.Errorf("ingest: %w", err)
	}
	rows := int(engine.BuildALP(values).FilterCount(1, engine.Between(lo, hi)))
	pred := client.Between(lo, hi)
	scan := func() {
		got, err := cl.Scan(ctx, domain, pred)
		if err != nil {
			panic("served scan: " + err.Error())
		}
		if len(got) != rows {
			panic(fmt.Sprintf("served scan returned %d rows, in-process %d", len(got), rows))
		}
	}
	sec, spread := bench.MeasureMedianSeconds(scan, opt.MinDur, opt.Reps)
	return &ServedScan{Dataset: name, Rows: rows, ScanMVs: mvs(len(values), sec)}, spread, nil
}

// WriteTable prints the per-domain results as the EXPERIMENTS.md
// markdown table, with a winner line per domain echoing FCBench's
// no-universal-winner finding.
func WriteTable(w io.Writer, doc *Doc) {
	fmt.Fprintf(w, "Cross-domain gauntlet, %d values/dataset, median of %d windows (ratio in bits/value, throughput in MV/s)\n",
		doc.N, doc.Repetitions)
	for _, dr := range doc.Domains {
		fmt.Fprintf(w, "\n## domain %s\n\n", dr.Domain)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "dataset\tcodec\tbits/value\tcompress\tdecompress\tfilter")
		for _, e := range dr.Entries {
			fmt.Fprintf(tw, "%s\t%s\t%.2f\t%.1f\t%.1f\t%.1f\n",
				e.Dataset, e.Codec, e.BitsPerValue, e.CompressMVs, e.DecompressMVs, e.FilterMVs)
		}
		tw.Flush()
		if best := domainWinner(dr.Entries); best != "" {
			fmt.Fprintf(w, "best ratio: %s", best)
			if dr.ServedScan != nil {
				fmt.Fprintf(w, "; served ALPS scan on %s: %.1f MV/s (%d rows)",
					dr.ServedScan.Dataset, dr.ServedScan.ScanMVs, dr.ServedScan.Rows)
			}
			fmt.Fprintln(w)
		}
	}
}

// domainWinner names the codec with the best mean compression ratio
// across the domain's datasets.
func domainWinner(entries []Entry) string {
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, e := range entries {
		sums[e.Codec] += e.BitsPerValue
		counts[e.Codec]++
	}
	best, bestBits := "", math.Inf(1)
	for _, c := range CodecNames() {
		if n := counts[c]; n > 0 {
			if mean := sums[c] / float64(n); mean < bestBits {
				best, bestBits = c, mean
			}
		}
	}
	if best == "" {
		return ""
	}
	return fmt.Sprintf("%s (%.2f bits/value mean)", best, bestBits)
}
