package bench

import (
	"math"
	"sort"

	"github.com/goalp/alp/internal/bitpack"
	"github.com/goalp/alp/internal/fastlanes"
	"github.com/goalp/alp/internal/format"
	"github.com/goalp/alp/internal/vector"
)

// Cascade computes the LWC+ALP column of Table 4: before applying ALP,
// the data may first go through a lightweight encoding — DICTIONARY
// (with the dictionary itself ALP-compressed) or RLE (with run values
// ALP-compressed and run lengths FFOR-packed) — whichever yields the
// fewest bits per value. The plain ALP encoding is always a candidate,
// so the cascade never loses to it.
type Cascade struct {
	BitsPerValue float64
	// Scheme is "", "dict" or "rle" — the superscript of Table 4.
	Scheme string
}

// MeasureCascade evaluates the three cascade candidates per row-group
// and sums the best choices.
func MeasureCascade(values []float64) Cascade {
	if len(values) == 0 {
		return Cascade{}
	}
	totalBits := 0
	schemeCounts := map[string]int{}
	for g := 0; g < vector.RowGroupsIn(len(values)); g++ {
		lo := g * vector.RowGroupSize
		hi := lo + vector.RowGroupSize
		if hi > len(values) {
			hi = len(values)
		}
		part := values[lo:hi]

		rg := format.EncodeRowGroup(part, lo)
		best, scheme := (&rg).SizeBits(), ""
		if b := dictCascadeBits(part); b < best {
			best, scheme = b, "dict"
		}
		if b := rleCascadeBits(part); b < best {
			best, scheme = b, "rle"
		}
		totalBits += best
		schemeCounts[scheme]++
	}
	// Report the dominant non-plain scheme as the superscript, like the
	// per-dataset annotation in Table 4. The schemes are weighed in the
	// order they are tried, so on equal counts the earlier one wins and
	// every run labels the column alike.
	bestScheme := ""
	bestCount := 0
	for _, s := range []string{"dict", "rle"} {
		if c := schemeCounts[s]; c > bestCount {
			bestScheme, bestCount = s, c
		}
	}
	if schemeCounts[""] >= bestCount {
		bestScheme = ""
	}
	return Cascade{
		BitsPerValue: float64(totalBits) / float64(len(values)),
		Scheme:       bestScheme,
	}
}

// dictCascadeBits estimates DICTIONARY + ALP: the row-group's distinct
// doubles form a dictionary compressed with ALP; the column stores
// bit-packed codes into it.
func dictCascadeBits(values []float64) int {
	index := make(map[uint64]struct{}, 1024)
	for _, v := range values {
		index[math.Float64bits(v)] = struct{}{}
	}
	card := len(index)
	if card > 1<<16 {
		return math.MaxInt // dictionary larger than the code space: not viable
	}
	dict := make([]float64, 0, card)
	for b := range index {
		dict = append(dict, math.Float64frombits(b))
	}
	// Sorting keeps dictionary construction deterministic and helps the
	// ALP pass (tighter FOR ranges). NaNs sort to the front arbitrarily.
	sort.Float64s(dict)
	codeWidth := bitpack.Width(uint64(card - 1))
	dictRG := format.EncodeRowGroup(dict, 0)
	dictBits := (&dictRG).SizeBits()
	return len(values)*int(codeWidth) + dictBits + 32
}

// rleCascadeBits estimates RLE + ALP: run values are ALP-compressed,
// run lengths FFOR-packed.
func rleCascadeBits(values []float64) int {
	var runValues []float64
	var runLengths []int64
	cur := values[0]
	length := int64(1)
	for _, v := range values[1:] {
		if math.Float64bits(v) == math.Float64bits(cur) {
			length++
			continue
		}
		runValues = append(runValues, cur)
		runLengths = append(runLengths, length)
		cur, length = v, 1
	}
	runValues = append(runValues, cur)
	runLengths = append(runLengths, length)
	if len(runValues) > len(values)/2 {
		return math.MaxInt // too few repeats for RLE to pay off
	}
	valueRG := format.EncodeRowGroup(runValues, 0)
	valueBits := (&valueRG).SizeBits()
	lengths := fastlanes.EncodeFFOR(runLengths)
	return valueBits + lengths.SizeBits() + 32
}
