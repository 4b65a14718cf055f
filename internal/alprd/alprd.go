// Package alprd implements ALP_rd, the paper's adaptive fallback for
// "real doubles" (§3.4, Algorithm 3): high-precision floating-point data
// that the decimal scheme cannot compress (e.g. the POI datasets, ML
// model weights).
//
// Each value's bit pattern is cut at position p into a left part (the
// front bits above p: sign, exponent, and the highest mantissa bits, at
// most 16 bits) and a right part (the low p bits). Right parts are
// bit-packed verbatim at p bits. Left parts exhibit low variance and are
// compressed with a skewed dictionary: a dictionary of at most 8
// 16-bit values chosen by frequency on a row-group sample, with values
// outside the dictionary stored as 16-bit exceptions plus 16-bit
// positions. The cut position p and the dictionary are chosen once per
// row-group by sampling.
//
// Sampling, encoding and decoding are written once over vector.Float:
// float32 (§4.4) cuts its 32-bit patterns exactly as float64 cuts its
// 64-bit ones. The Encoder and Vector hold no floats, so they serve
// both widths.
package alprd

import (
	"math"
	"sort"
	"sync"

	"github.com/goalp/alp/internal/bitpack"
	"github.com/goalp/alp/internal/obs"
	"github.com/goalp/alp/internal/vector"
)

// cutRange returns the cut positions the sampler searches for T: the
// left part is at most 16 bits (p >= width-16) and at least 1 bit
// (p <= width-1), so 48–63 for float64 and 16–31 for float32.
func cutRange[T vector.Float]() (minRight, maxRight int) {
	w := int(vector.BitWidth[T]())
	return w - 16, w - 1
}

// MaxDictBits is the largest dictionary code width b: dictionaries hold
// at most 2^3 = 8 entries (§3.4).
const MaxDictBits = 3

// maxExceptionFrac is the exception budget per §3.4: the smallest
// dictionary with at most 10% exceptions is chosen, otherwise the
// largest (b = 3).
const maxExceptionFrac = 0.10

// Encoder holds the per-row-group parameters of ALP_rd: the cut
// position and the left-part dictionary. It is built once per row-group
// by Sample and reused for every vector in it. CodeWidth is at most
// MaxDictBits and Dict holds at most 1<<CodeWidth entries: Sample
// builds no more, and the format readers reject more.
type Encoder struct {
	P         uint8    // right-part width in bits
	Dict      []uint16 // left-part dictionary, most frequent first
	CodeWidth uint     // b: bits per dictionary code

	// index maps a left value to code+1 (0 = not in dictionary); a
	// flat table keeps the per-value encode lookup branch-light. Only
	// an encoder that encodes needs it, so EncodeVector builds it on
	// first use.
	indexOnce sync.Once
	index     *[1 << 16]uint16
}

// Vector is one ALP_rd-encoded vector: bit-packed right parts and
// dictionary codes, plus the left-part exceptions.
type Vector struct {
	N          int
	RightWords []uint64
	CodeWords  []uint64
	ExcPos     []uint16
	ExcLeft    []uint16
}

// Sample chooses the cut position p and the dictionary on a row-group
// sample (first-level sampling, §3.2/§3.4): for every candidate p it
// estimates the compressed bits/value — right bits + code bits + the
// exception overhead implied by the dictionary hit rate — and keeps the
// best. The chosen encoder builds its encode index on its first
// EncodeVector.
func Sample[T vector.Float](values []T) *Encoder {
	sample := rowGroupSample(values)
	best := &Encoder{}
	bestCost := math.MaxFloat64
	cuts := 0
	minRight, maxRight := cutRange[T]()
	for p := minRight; p <= maxRight; p++ {
		enc, exc := buildEncoder(sample, uint8(p))
		cuts++
		cost := enc.estimateBits(exc, len(sample))
		if cost < bestCost {
			bestCost = cost
			best = enc
		}
	}
	obs.Active().RDSampled(cuts, len(best.Dict))
	return best
}

// rowGroupSample mirrors the decimal scheme's first-level sampling:
// equidistant values from equidistant vectors, as bit patterns.
func rowGroupSample[T vector.Float](values []T) []uint64 {
	nv := vector.VectorsIn(len(values))
	nSample := 8
	if nv < nSample {
		nSample = nv
	}
	step := 1
	if nv > nSample {
		step = nv / nSample
	}
	var sample []uint64
	for i := 0; i < nSample; i++ {
		lo, hi := vector.Bounds(i*step, len(values))
		vec := values[lo:hi]
		stride := 1
		if len(vec) > 32 {
			stride = len(vec) / 32
		}
		for j := 0; j < len(vec); j += stride {
			sample = append(sample, vector.ToBits(vec[j]))
		}
	}
	return sample
}

// buildEncoder constructs the dictionary for cut position p from the
// sampled bit patterns: left values are ranked by frequency and the
// smallest dictionary size 2^b with at most 10% exceptions is chosen
// (or b = MaxDictBits if none qualifies). It also returns how many
// sampled values miss the dictionary.
func buildEncoder(sample []uint64, p uint8) (*Encoder, int) {
	freq := make(map[uint16]int, 64)
	for _, bits := range sample {
		freq[uint16(bits>>p)]++
	}
	type lv struct {
		left  uint16
		count int
	}
	ranked := make([]lv, 0, len(freq))
	for l, c := range freq {
		ranked = append(ranked, lv{l, c})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].count != ranked[j].count {
			return ranked[i].count > ranked[j].count
		}
		return ranked[i].left < ranked[j].left
	})

	total := len(sample)
	chosen := MaxDictBits
	for b := 0; b <= MaxDictBits; b++ {
		size := 1 << b
		hits := 0
		for i := 0; i < size && i < len(ranked); i++ {
			hits += ranked[i].count
		}
		if total == 0 || float64(total-hits)/float64(total) <= maxExceptionFrac {
			chosen = b
			break
		}
	}
	size := 1 << chosen
	if size > len(ranked) {
		size = len(ranked)
	}
	e := &Encoder{P: p, CodeWidth: uint(chosen)}
	e.Dict = make([]uint16, size)
	exc := total
	for i := 0; i < size; i++ {
		e.Dict[i] = ranked[i].left
		exc -= ranked[i].count
	}
	return e, exc
}

// estimateBits estimates the per-value compressed size of a sample of n
// values, exc of which miss the dictionary, under this encoder. An
// empty sample costs every cut the same.
func (e *Encoder) estimateBits(exc, n int) float64 {
	if n == 0 {
		return 0
	}
	excFrac := float64(exc) / float64(n)
	return float64(e.P) + float64(e.CodeWidth) + excFrac*32 // 16-bit value + 16-bit position
}

// encodeIndex returns the left value -> code+1 table, building it on
// the first call. Concurrent callers share one build.
func (e *Encoder) encodeIndex() *[1 << 16]uint16 {
	e.indexOnce.Do(func() {
		e.index = new([1 << 16]uint16)
		for i, l := range e.Dict {
			e.index[l] = uint16(i) + 1
		}
	})
	return e.index
}

// EncodeVector cuts every value of src at e.P and compresses both parts
// (Algorithm 3, encoding).
func EncodeVector[T vector.Float](e *Encoder, src []T) Vector {
	index := e.encodeIndex()
	n := len(src)
	v := Vector{N: n}
	var rightsArr, codesArr [vector.Size]uint64
	var rights, codes []uint64
	if n <= vector.Size {
		rights, codes = rightsArr[:n], codesArr[:n]
	} else {
		rights = make([]uint64, n)
		codes = make([]uint64, n)
	}
	for i, x := range src {
		bits := vector.ToBits(x)
		left := uint16(bits >> e.P)
		rights[i] = bits & (uint64(1)<<e.P - 1)
		code := index[left]
		if code == 0 {
			v.ExcPos = append(v.ExcPos, uint16(i))
			v.ExcLeft = append(v.ExcLeft, left)
			code = 1 // placeholder inside the code width
		}
		codes[i] = uint64(code - 1)
	}
	v.RightWords = make([]uint64, bitpack.WordCount(n, uint(e.P)))
	bitpack.Pack(v.RightWords, rights, uint(e.P), 0)
	v.CodeWords = make([]uint64, bitpack.WordCount(n, e.CodeWidth))
	bitpack.Pack(v.CodeWords, codes, e.CodeWidth, 0)
	return v
}

// DecodeVector reverses EncodeVector (Algorithm 3, decoding) straight
// into dst in one pass, allocating nothing: each 64-row block unpacks
// its right parts and codes into stack blocks and ORs in the
// pre-shifted dictionary entries, then the exceptions rewrite their
// rows' left bits. A code past the dictionary keeps left part 0, and
// left bits above T's width are dropped. dst must hold v.N values.
func DecodeVector[T vector.Float](e *Encoder, v *Vector, dst []T) {
	out := dst[:v.N]
	p, cw := uint(e.P), e.CodeWidth
	var left [1 << MaxDictBits]uint64
	for c, l := range e.Dict {
		left[c] = uint64(l) << p
	}
	// Codes are below 1<<MaxDictBits; the mask drops the bounds check.
	const mask = 1<<MaxDictBits - 1
	var rights, codes [bitpack.BlockSize]uint64
	full := len(out) / bitpack.BlockSize
	for b := 0; b < full; b++ {
		bitpack.UnpackBlock(&rights, v.RightWords[b*int(p):], p, 0)
		bitpack.UnpackBlock(&codes, v.CodeWords[b*int(cw):], cw, 0)
		rows := (*[bitpack.BlockSize]T)(out[b*bitpack.BlockSize:])
		for j := range rows {
			rows[j] = vector.FromBits[T](rights[j] | left[codes[j]&mask])
		}
	}
	if tail := out[full*bitpack.BlockSize:]; len(tail) > 0 {
		bitpack.Unpack(rights[:len(tail)], v.RightWords[full*int(p):], p, 0)
		bitpack.Unpack(codes[:len(tail)], v.CodeWords[full*int(cw):], cw, 0)
		for j := range tail {
			tail[j] = vector.FromBits[T](rights[j] | left[codes[j]&mask])
		}
	}
	right := uint64(1)<<p - 1
	for k, pos := range v.ExcPos {
		out[pos] = vector.FromBits[T](vector.ToBits(out[pos])&right | uint64(v.ExcLeft[k])<<p)
	}
}

// Exceptions returns the number of left-part exceptions in the vector.
func (v *Vector) Exceptions() int { return len(v.ExcPos) }

// SizeBits returns the exact compressed size of the vector in bits,
// given the encoder that produced it.
func (e *Encoder) SizeBits(v *Vector) int {
	return v.N*int(e.P) + v.N*int(e.CodeWidth) + len(v.ExcPos)*32 + 16
}

// HeaderBits is the per-row-group metadata cost: the cut position, the
// code width and the dictionary values.
func (e *Encoder) HeaderBits() int {
	return 8 + 8 + len(e.Dict)*16
}

// NewEncoder reconstructs an Encoder from serialized parameters (the
// decoding side of the format reader). It builds no encode index:
// decoding needs none, and EncodeVector builds one on first use.
func NewEncoder(p uint8, codeWidth uint, dict []uint16) *Encoder {
	return &Encoder{P: p, CodeWidth: codeWidth, Dict: dict}
}
