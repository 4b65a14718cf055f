package bench

import (
	"time"

	"github.com/goalp/alp/internal/alpenc"
	"github.com/goalp/alp/internal/alprd"
	"github.com/goalp/alp/internal/vector"
)

// MeasureALP measures ALP kernel speed on one vector of the dataset,
// mirroring the paper's micro-benchmark: first-level sampling happens
// once (it is amortized over the row-group and excluded, as in §4.2),
// and the per-vector work — second-stage sampling, encode + FFOR, or
// unFFOR + decode — is what is timed.
func MeasureALP(values []float64, ghz float64, minDur time.Duration) Speed {
	n := vector.Size
	if n > len(values) {
		n = len(values)
	}
	vec := values[:n]
	dec := alpenc.SampleRowGroup(values)
	if len(dec.Combos) == 0 {
		dec.Combos = []alpenc.Combo{{E: 0, F: 0}}
	}
	scratch := make([]int64, n)
	compSec := measureSeconds(func() {
		combo, _ := alpenc.ChooseForVector(vec, dec.Combos)
		alpenc.EncodeVector(vec, combo, scratch)
	}, minDur)

	combo, _ := alpenc.ChooseForVector(vec, dec.Combos)
	enc := alpenc.EncodeVector(vec, combo, nil)
	dst := make([]float64, n)
	decompSec := measureSeconds(func() { enc.Decode(dst, scratch) }, minDur)
	return Speed{
		Comp:   TuplesPerCycle(compSec, n, ghz),
		Decomp: TuplesPerCycle(decompSec, n, ghz),
	}
}

// MeasureALPVariants measures ALP decode speed for the three kernel
// variants of the Figure 4 ablation: the specialized fused kernels
// ("simd"), specialized kernels with a separate base pass ("auto"), and
// the width-parametric scalar loop ("scalar").
func MeasureALPVariants(values []float64, ghz float64, minDur time.Duration) (fused, unfused, scalar float64) {
	n := vector.Size
	if n > len(values) {
		n = len(values)
	}
	vec := values[:n]
	dec := alpenc.SampleRowGroup(values)
	if len(dec.Combos) == 0 {
		dec.Combos = []alpenc.Combo{{E: 0, F: 0}}
	}
	combo, _ := alpenc.ChooseForVector(vec, dec.Combos)
	enc := alpenc.EncodeVector(vec, combo, nil)
	dst := make([]float64, n)
	scratch := make([]int64, n)
	fused = TuplesPerCycle(measureSeconds(func() { enc.Decode(dst, scratch) }, minDur), n, ghz)
	unfused = TuplesPerCycle(measureSeconds(func() { enc.DecodeUnfused(dst, scratch) }, minDur), n, ghz)
	scalar = TuplesPerCycle(measureSeconds(func() { enc.DecodeGeneric(dst, scratch) }, minDur), n, ghz)
	return fused, unfused, scalar
}

// MeasureALPRD measures ALP_rd kernel speed on one vector, with the
// row-group sampling done once up front (as for ALP).
func MeasureALPRD(values []float64, ghz float64, minDur time.Duration) Speed {
	n := vector.Size
	if n > len(values) {
		n = len(values)
	}
	vec := values[:n]
	enc := alprd.Sample(values)
	compSec := measureSeconds(func() { alprd.EncodeVector(enc, vec) }, minDur)
	v := alprd.EncodeVector(enc, vec)
	dst := make([]float64, n)
	decompSec := measureSeconds(func() { alprd.DecodeVector(enc, &v, dst) }, minDur)
	return Speed{
		Comp:   TuplesPerCycle(compSec, n, ghz),
		Decomp: TuplesPerCycle(decompSec, n, ghz),
	}
}
