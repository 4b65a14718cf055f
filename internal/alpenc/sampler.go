package alpenc

import (
	"math"
	"sort"

	"github.com/goalp/alp/internal/bitpack"
	"github.com/goalp/alp/internal/obs"
	"github.com/goalp/alp/internal/vector"
)

// Sampling parameters (paper §4, "Sampling Parameters"): k=5 candidate
// combinations, 8 vectors sampled per row-group, 32 values sampled per
// vector in both sampling levels.
const (
	MaxCombos          = 5  // k
	SampleVectors      = 8  // vectors sampled per row-group
	SampleValuesPerVec = 32 // values sampled per vector, first level
	SecondStageSamples = 32 // s, values sampled per vector, second level
)

// Decision is the outcome of first-level (row-group) sampling: the k'
// best (e,f) combinations ordered by frequency, the size estimate the
// choice was based on, and whether the row-group should switch to the
// ALP_rd scheme entirely (§3.4).
type Decision struct {
	Combos          []Combo
	EstBitsPerValue float64
	UseRD           bool
}

// comboCost estimates the compressed size in bits of encoding sample
// with combination c: every slot costs the bit width implied by the
// successful integers' range, and every exception additionally costs
// exceptionBits (80 bits for float64, §3.1). It returns the cost and
// the exception count.
func comboCost[T vector.Float](sample []T, c Combo) (bits, exceptions int) {
	return comboCostBelow(sample, c, math.MaxInt)
}

// comboCostBelow is comboCost that gives up once the cost cannot stay
// below bound. Over the values seen so far, exceptions × exceptionBits
// plus len(sample) × the width of the encoded range is a lower bound on
// the cost, and neither term can shrink, so once it reaches bound the
// loop stops and returns it: a cost >= bound, but not the full cost.
func comboCostBelow[T vector.Float](sample []T, c Combo, bound int) (bits, exceptions int) {
	w := widthOf[T]()
	fe, ff := w.f10[c.E], w.if10[c.F]
	df, de := w.f10[c.F], w.if10[c.E]
	sweet, lo, hi := w.sweet, -w.limit, w.limit
	excBits := exceptionBits[T]()
	min, max := int64(math.MaxInt64), int64(math.MinInt64)
	var bw uint
	for _, x := range sample {
		scaled := T(x * fe * ff) // rounded before fastRound's add, as in EncodeVector
		if !(scaled >= lo && scaled <= hi) {
			exceptions++
		} else if d := fastRound(scaled, sweet); vector.ToBits(T(d)*df*de) != vector.ToBits(x) {
			exceptions++
		} else if d >= min && d <= max {
			continue
		} else {
			if d < min {
				min = d
			}
			if d > max {
				max = d
			}
			bw = bitpack.Width(uint64(max) - uint64(min))
		}
		if low := len(sample)*int(bw) + exceptions*excBits; low >= bound {
			return low, exceptions
		}
	}
	return len(sample)*int(bw) + exceptions*excBits, exceptions
}

// FindBest exhaustively searches all (e,f) combinations (253 for
// float64, 66 for float32) for the one minimizing comboCost on the
// sample. Ties prefer higher exponents and factors, mirroring the
// paper's tie-break. It also returns the winning cost in bits. A
// combination is costed only while it can still beat the best so far:
// one is taken only at a strictly lower cost, so stopping its costing
// early never changes the winner.
func FindBest[T vector.Float](sample []T) (Combo, int) {
	best := Combo{}
	bestCost := math.MaxInt
	for e := widthOf[T]().maxExponent(); e >= 0; e-- {
		for f := e; f >= 0; f-- {
			c := Combo{E: uint8(e), F: uint8(f)}
			cost, _ := comboCostBelow(sample, c, bestCost)
			if cost < bestCost {
				bestCost = cost
				best = c
			}
		}
	}
	return best, bestCost
}

// sampleEquidistant copies count equidistant elements of src into a new
// slice. If src has fewer than count elements it is returned as-is.
func sampleEquidistant[T vector.Float](src []T, count int) []T {
	if len(src) <= count {
		return src
	}
	out := make([]T, count)
	step := len(src) / count
	for i := range out {
		out[i] = src[i*step]
	}
	return out
}

// StridedBest is the second look the encoder takes at a vector whose
// chosen combination left at least half its values as exceptions. Both
// sampling levels take every 32nd value (§3.2), so on a regularly
// spaced series the samples can share a property the rest lack: on
// i*0.25 every sampled value is an integer, the chosen combination
// encodes integers only, and three values in four become exceptions.
// StridedBest runs FindBest on SampleValuesPerVec values taken at the
// odd stride 31, which no power-of-two period lines up with, and
// returns the winner. The sample lives on the stack.
func StridedBest[T vector.Float](vec []T) Combo {
	var buf [SampleValuesPerVec]T
	n := 0
	for i := 0; i < len(vec) && n < len(buf); i += 31 {
		buf[n] = vec[i]
		n++
	}
	best, _ := FindBest(buf[:n])
	return best
}

// SampleRowGroup performs first-level sampling on a row-group of values
// (§3.2): it samples equidistant values from equidistant vectors, finds
// each sampled vector's best combination exhaustively, and keeps the k
// most frequent ones. It also estimates the achievable bits/value; when
// that estimate exceeds T's ALP_rd threshold the caller should encode
// the whole row-group with ALP_rd instead (§3.4).
func SampleRowGroup[T vector.Float](values []T) Decision {
	nv := vector.VectorsIn(len(values))
	nSample := SampleVectors
	if nv < nSample {
		nSample = nv
	}
	step := 1
	if nv > nSample {
		step = nv / nSample
	}

	type cand struct {
		c     Combo
		count int
	}
	counts := make(map[Combo]int, nSample)
	totalCost, totalVals := 0, 0
	for i := 0; i < nSample; i++ {
		lo, hi := vector.Bounds(i*step, len(values))
		sample := sampleEquidistant(values[lo:hi], SampleValuesPerVec)
		best, cost := FindBest(sample)
		counts[best]++
		totalCost += cost
		totalVals += len(sample)
	}

	cands := make([]cand, 0, len(counts))
	for c, n := range counts {
		cands = append(cands, cand{c, n})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].count != cands[j].count {
			return cands[i].count > cands[j].count
		}
		if cands[i].c.E != cands[j].c.E {
			return cands[i].c.E > cands[j].c.E
		}
		return cands[i].c.F > cands[j].c.F
	})
	if len(cands) > MaxCombos {
		cands = cands[:MaxCombos]
	}

	d := Decision{Combos: make([]Combo, len(cands))}
	for i, c := range cands {
		d.Combos[i] = c.c
	}
	if totalVals > 0 {
		d.EstBitsPerValue = float64(totalCost) / float64(totalVals)
	}
	d.UseRD = d.EstBitsPerValue >= widthOf[T]().rdThreshold
	return d
}

// ChooseForVector performs second-level sampling (§3.2): it evaluates
// the row-group's k' candidate combinations on s equidistant values of
// the vector, with a greedy early exit — if two consecutive candidates
// perform no better than the best so far, the search stops. When the
// row-group yielded a single combination the sampling is skipped
// entirely. It returns the chosen combination and how many candidates
// were tried (for the sampling-overhead experiment, §4.2).
func ChooseForVector[T vector.Float](vec []T, combos []Combo) (Combo, int) {
	o := obs.Active()
	if len(combos) == 1 {
		o.Add(obs.SecondStageSkips, 1)
		return combos[0], 0
	}
	sample := sampleEquidistant(vec, SecondStageSamples)
	best := combos[0]
	bestCost, _ := comboCost(sample, best)
	tried := 1
	worseStreak := 0
	early := false
	for _, c := range combos[1:] {
		cost, _ := comboCost(sample, c)
		tried++
		if cost < bestCost {
			bestCost = cost
			best = c
			worseStreak = 0
		} else {
			worseStreak++
			if worseStreak >= 2 {
				early = tried < len(combos)
				break
			}
		}
	}
	o.SecondStage(tried, early)
	return best, tried
}
