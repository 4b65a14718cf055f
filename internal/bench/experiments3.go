package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"github.com/goalp/alp/internal/chimp"
	"github.com/goalp/alp/internal/dataset"
	"github.com/goalp/alp/internal/engine"
	"github.com/goalp/alp/internal/format"
	"github.com/goalp/alp/internal/gorilla"
	"github.com/goalp/alp/internal/gp"
	"github.com/goalp/alp/internal/obs"
	"github.com/goalp/alp/internal/patas"
	"github.com/goalp/alp/internal/pde"
)

// EndToEndDatasets are the five diverse datasets the paper picks for
// the Tectorwise experiments (§4.3).
var EndToEndDatasets = []string{"Gov/26", "City-Temp", "Food-prices", "Blockchain-tr", "NYC/29"}

// scaleUp replicates values by concatenation until the target size, as
// the paper does ("we scaled all datasets up to 1 billion doubles by
// concatenation").
func scaleUp(values []float64, target int) []float64 {
	if len(values) >= target {
		return values[:target]
	}
	out := make([]float64, target)
	for off := 0; off < target; off += len(values) {
		copy(out[off:], values)
	}
	return out
}

// engineRelations builds the Table 6 competitor set over values.
func engineRelations(values []float64) []*engine.Relation {
	return []*engine.Relation{
		engine.BuildALP(values),
		engine.BuildUncompressed(values),
		engine.BuildStream("PDE", values, pde.Compress, pde.Decompress),
		engine.BuildStream("Patas", values, patas.Compress, patas.Decompress),
		engine.BuildStream("Gorilla", values, gorilla.Compress, gorilla.Decompress),
		engine.BuildStream("Chimp", values, chimp.Compress, chimp.Decompress),
		engine.BuildStream("Chimp128", values, chimp.CompressN, chimp.DecompressN),
		engine.BuildStream("Zstd*", values, gp.Compress, gp.Decompress),
	}
}

// queryTuplesPerCycle times one query execution and converts it to
// per-core tuples per cycle (the paper's Table 6 metric: equal numbers
// across thread counts mean perfect scaling).
func queryTuplesPerCycle(n, threads int, ghz float64, minDur time.Duration, query func()) float64 {
	sec := measureSeconds(query, minDur)
	perCore := TuplesPerCycle(sec, n, ghz) / float64(threads)
	return perCore
}

// RunTable6 reproduces the end-to-end Tectorwise experiment on
// City-Temp: SCAN and SUM at 1/8/16 threads plus single-threaded
// compression, in per-core tuples per cycle.
func RunTable6(w io.Writer, opt Options, scale int, threads []int) {
	fmt.Fprintf(w, "== Table 6: end-to-end performance on City-Temp (%d values), tuples/cycle per core ==\n", scale)
	d, _ := dataset.ByName("City-Temp")
	values := scaleUp(d.Generate(dataset.DefaultN), scale)
	rels := engineRelations(values)

	tw := newTab(w)
	header := "algorithm"
	for _, t := range threads {
		header += fmt.Sprintf("\tSCAN %d", t)
	}
	for _, t := range threads {
		header += fmt.Sprintf("\tSUM %d", t)
	}
	header += "\tCOMP"
	fmt.Fprintln(tw, header)

	for _, r := range rels {
		row := r.Name
		for _, t := range threads {
			tpc := queryTuplesPerCycle(len(values), t, opt.GHz, opt.MinDur, func() { r.Scan(t) })
			row += fmt.Sprintf("\t%.3f", tpc)
		}
		for _, t := range threads {
			tpc := queryTuplesPerCycle(len(values), t, opt.GHz, opt.MinDur, func() { r.Sum(t) })
			row += fmt.Sprintf("\t%.3f", tpc)
		}
		if r.Name == "Uncompressed" {
			row += "\tN/A"
		} else {
			comp := measureCompression(r.Name, values, opt)
			row += fmt.Sprintf("\t%.3f", comp)
		}
		fmt.Fprintln(tw, row)
	}
	tw.Flush()
}

// measureCompression times whole-column compression (including
// sampling and metadata, unlike the micro-benchmarks) in tuples/cycle.
func measureCompression(name string, values []float64, opt Options) float64 {
	var fn func()
	switch name {
	case "ALP":
		fn = func() { format.EncodeColumn(values) }
	case "PDE":
		fn = func() { pde.Compress(values) }
	case "Patas":
		fn = func() { patas.Compress(values) }
	case "Gorilla":
		fn = func() { gorilla.Compress(values) }
	case "Chimp":
		fn = func() { chimp.Compress(values) }
	case "Chimp128":
		fn = func() { chimp.CompressN(values) }
	case "Zstd*":
		fn = func() { gp.Compress(values) }
	default:
		return 0
	}
	return TuplesPerCycle(measureSeconds(fn, opt.MinDur), len(values), opt.GHz)
}

// RunFig6 reproduces Figure 6: end-to-end SUM cost in CPU cycles per
// tuple (lower is better) on the five diverse datasets, split into scan
// and summing work.
func RunFig6(w io.Writer, opt Options, scale int, threads int) {
	fmt.Fprintf(w, "== Figure 6: SUM query cost, CPU cycles per tuple (%d values, %d threads; lower is better) ==\n", scale, threads)
	tw := newTab(w)
	fmt.Fprintln(tw, "dataset\talgorithm\tSCAN cyc/tuple\tSUM cyc/tuple\tsum work (SUM-SCAN)")
	for _, name := range EndToEndDatasets {
		d, ok := dataset.ByName(name)
		if !ok {
			continue
		}
		values := scaleUp(d.Generate(dataset.DefaultN), scale)
		for _, r := range engineRelations(values) {
			scanSec := measureSeconds(func() { r.Scan(threads) }, opt.MinDur)
			sumSec := measureSeconds(func() { r.Sum(threads) }, opt.MinDur)
			scanCyc := scanSec * opt.GHz * 1e9 / float64(len(values)) * float64(threads)
			sumCyc := sumSec * opt.GHz * 1e9 / float64(len(values)) * float64(threads)
			fmt.Fprintf(tw, "%s\t%s\t%.2f\t%.2f\t%.2f\n", name, r.Name, scanCyc, sumCyc, sumCyc-scanCyc)
		}
	}
	tw.Flush()
}

// mlModels are the Table 7 workloads, sized down from the paper's
// parameter counts.
var mlModels = []struct {
	Name   string
	Kind   string
	Params int
}{
	{"Dino-Vitb16", "Vision Transformer", 1 << 21},
	{"GPT2", "Text Generation", 1 << 21},
	{"Grammarly-lg", "Text2Text", 1 << 22},
	{"W2V Tweets", "Word2Vec", 3000},
}

// RunTable7 reproduces Table 7: compression ratios on float32 ML model
// weights for the 32-bit codecs.
func RunTable7(w io.Writer, opt Options) {
	fmt.Fprintln(w, "== Table 7: ML model weights (float32), bits per value (raw = 32) ==")
	tw := newTab(w)
	fmt.Fprintln(tw, "model\ttype\tparams\tGor.\tCh.\tCh.128\tPatas\tALP_rd\tZstd*")
	sums := make([]float64, 6)
	for mi, m := range mlModels {
		r := rand.New(rand.NewSource(int64(7000 + mi)))
		weights := dataset.Weights32(r, m.Params)
		n := float64(len(weights))
		gor := float64(len(gorilla.Compress32(weights))) * 8 / n
		ch := float64(len(chimp.Compress32(weights))) * 8 / n
		chN := float64(len(chimp.CompressN32(weights))) * 8 / n
		pat := float64(len(patas.Compress32(weights))) * 8 / n
		rd := format.EncodeColumn32(weights).BitsPerValue()
		zs := float64(len(gp.Compress32(weights))) * 8 / n
		for i, v := range []float64{gor, ch, chN, pat, rd, zs} {
			sums[i] += v
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\n",
			m.Name, m.Kind, m.Params, gor, ch, chN, pat, rd, zs)
	}
	k := float64(len(mlModels))
	fmt.Fprintf(tw, "AVG.\t\t\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\n",
		sums[0]/k, sums[1]/k, sums[2]/k, sums[3]/k, sums[4]/k, sums[5]/k)
	tw.Flush()
}

// RunALPRD reproduces the §4.2 ALP_rd speed comparison: ALP_rd is
// expected to be ~3x slower at compression and ~4x slower at
// decompression than the decimal scheme.
func RunALPRD(w io.Writer, opt Options) {
	fmt.Fprintln(w, "== ALP vs ALP_rd kernel speed (§4.2), tuples/cycle ==")
	dDec, _ := dataset.ByName("City-Temp")
	dRD, _ := dataset.ByName("POI-lat")
	alpSpeed := MeasureALP(dDec.Generate(opt.N), opt.GHz, opt.MinDur)
	rdSpeed := MeasureALPRD(dRD.Generate(opt.N), opt.GHz, opt.MinDur)
	tw := newTab(w)
	fmt.Fprintln(tw, "scheme\tcompression\tdecompression")
	fmt.Fprintf(tw, "ALP (City-Temp)\t%.3f\t%.3f\n", alpSpeed.Comp, alpSpeed.Decomp)
	fmt.Fprintf(tw, "ALP_rd (POI-lat)\t%.3f\t%.3f\n", rdSpeed.Comp, rdSpeed.Decomp)
	fmt.Fprintf(tw, "ALP_rd slower by\t%.1fx\t%.1fx\n", alpSpeed.Comp/rdSpeed.Comp, alpSpeed.Decomp/rdSpeed.Decomp)
	tw.Flush()
}

// RunFilter is an extension experiment beyond the paper's tables: it
// quantifies the predicate push-down claim of §1 ("one cannot skip
// through compressed data" with block-based compression). A selective
// range predicate runs over each relation; ALP answers it by consulting
// per-vector zone maps and examining only qualifying vectors, while
// every other scheme must decompress everything.
func RunFilter(w io.Writer, opt Options, scale int) {
	fmt.Fprintf(w, "== Predicate push-down (extension): SUM WHERE col BETWEEN lo AND hi (%d values) ==\n", scale)
	d, _ := dataset.ByName("Stocks-USA")
	values := scaleUp(d.Generate(dataset.DefaultN), scale)
	// A ~1%-selective predicate band.
	lo, hi := 150.0, 150.5
	tw := newTab(w)
	fmt.Fprintln(tw, "algorithm\tvectors examined\tof total\tquery tuples/cycle\tvs full SUM")
	for _, r := range engineRelations(values) {
		var touched int
		sec := measureSeconds(func() { _, _, touched = r.SumRange(1, lo, hi) }, opt.MinDur)
		fullSec := measureSeconds(func() { r.Sum(1) }, opt.MinDur)
		totalVectors := (len(values) + 1023) / 1024
		fmt.Fprintf(tw, "%s\t%d\t%.1f%%\t%.3f\t%.1fx\n",
			r.Name, touched, 100*float64(touched)/float64(totalVectors),
			TuplesPerCycle(sec, len(values), opt.GHz), fullSec/sec)
	}
	tw.Flush()
	fmt.Fprintln(w, "   (vectors examined < 100% is only possible with per-vector decodability)")

	// Selectivity sweep: the encoded-domain pushdown (zone-map skipping
	// + fused unpack+compare, no float materialization for
	// non-qualifying rows) against the forced decode-then-filter scan on
	// the same ALP relation. Predicates are upper-tail bands
	// "col >= quantile(1-s)", the shape of a selective analytic filter.
	fmt.Fprintf(w, "\n-- Selectivity sweep on ALP (SUM/COUNT/MIN/MAX WHERE col >= q, 1 thread) --\n")
	alp := engine.BuildALP(values)
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	quantile := func(q float64) float64 {
		i := int(q * float64(len(sorted)-1))
		return sorted[i]
	}
	tw = newTab(w)
	fmt.Fprintln(tw, "selectivity\tselected rows\tpushdown vecs\tfallback vecs\tpushdown\tnaive\tspeedup")
	for _, s := range []float64{0.001, 0.01, 0.05, 0.25, 0.50, 0.99} {
		p := engine.GE(quantile(1 - s))
		// One instrumented run for the counters, then uninstrumented
		// timing runs. Only disable afterwards if collection was off
		// before (e.g. not running under -metrics/-stats).
		wasActive := obs.Active() != nil
		c := obs.Enable()
		before := c.Snapshot()
		push, _ := alp.FilterAgg(1, p)
		snap := c.Snapshot()
		if !wasActive {
			obs.Disable()
		}
		pushSec := measureSeconds(func() { alp.FilterAgg(1, p) }, opt.MinDur)
		naiveSec := measureSeconds(func() { alp.FilterAggNaive(1, p) }, opt.MinDur)
		fmt.Fprintf(tw, "%.1f%%\t%d\t%d\t%d\t%.2fms\t%.2fms\t%.1fx\n",
			100*s, push.Count,
			snap.Counter[obs.PushdownVectors]-before.Counter[obs.PushdownVectors],
			snap.Counter[obs.PushdownFallbacks]-before.Counter[obs.PushdownFallbacks],
			pushSec*1e3, naiveSec*1e3, naiveSec/pushSec)
	}
	tw.Flush()
	fmt.Fprintln(w, "   (pushdown answers in the encoded-integer domain; naive decodes every vector)")
}
