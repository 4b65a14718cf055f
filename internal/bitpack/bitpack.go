// Package bitpack implements bit-packing of unsigned 64-bit integers at
// any width from 0 to 64 bits, the storage primitive underneath every
// lightweight encoding in this repository (FFOR, Dictionary, RLE, ALP_rd
// and the PDE baseline).
//
// Two implementations coexist:
//
//   - a generic, width-parametric scalar loop (Pack/Unpack), used for
//     partial tail blocks and as the "Scalar" kernel variant in the
//     Figure 4 ablation, and
//   - specialized straight-line kernels for every width (kernels_gen.go,
//     produced by cmd/genbitpack and checked in), processing 64 values
//     per call with constant shifts. These mirror the code shape that
//     FastLanes relies on C++ compilers to auto-vectorize and are the
//     fast path for full blocks.
//
// All kernels take a base value: packing stores v-base and unpacking
// restores v+base, which fuses Frame-Of-Reference into the packing loop
// (the paper's FFOR). Pass base 0 for plain bit-packing.
package bitpack

import "math/bits"

// BlockSize is the number of values processed by one specialized kernel
// call. A 1024-value vector is 16 blocks.
const BlockSize = 64

// Width returns the number of bits needed to represent max.
func Width(max uint64) uint {
	return uint(bits.Len64(max))
}

// WordCount returns the number of 64-bit words needed to store n values
// of w bits each.
func WordCount(n int, w uint) int {
	return (n*int(w) + 63) / 64
}

// mask returns a mask of the w low bits. w must be in [0, 64].
func mask(w uint) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}

// Pack packs the w low bits of each src[i]-base into dst, little-endian
// within and across words. dst must have at least WordCount(len(src), w)
// words; the words touched are fully overwritten. Any n is accepted:
// full 64-value blocks go through the specialized kernels and the tail
// through the generic loop.
func Pack(dst, src []uint64, w uint, base uint64) {
	if w == 0 {
		return
	}
	n := len(src)
	full := n / BlockSize * BlockSize
	for i := 0; i < full; i += BlockSize {
		packBlock(dst[i/BlockSize*int(w):], (*[BlockSize]uint64)(src[i:i+BlockSize]), w, base)
	}
	if full < n {
		PackGeneric(dst[full/BlockSize*int(w):], src[full:], w, base)
	}
}

// Unpack reverses Pack: it reads len(dst) w-bit values from src and
// stores value+base into dst.
func Unpack(dst, src []uint64, w uint, base uint64) {
	n := len(dst)
	if w == 0 {
		for i := range dst {
			dst[i] = base
		}
		return
	}
	full := n / BlockSize * BlockSize
	for i := 0; i < full; i += BlockSize {
		unpackBlock((*[BlockSize]uint64)(dst[i:i+BlockSize]), src[i/BlockSize*int(w):], w, base)
	}
	if full < n {
		UnpackGeneric(dst[full:], src[full/BlockSize*int(w):], w, base)
	}
}

// PackGeneric is the width-parametric scalar packing loop. It packs
// len(src) values of w bits starting at the beginning of dst. w must be
// in [1, 64].
func PackGeneric(dst, src []uint64, w uint, base uint64) {
	m := mask(w)
	var cur uint64
	var fill uint
	di := 0
	for _, v := range src {
		v = (v - base) & m
		cur |= v << fill
		fill += w
		if fill >= 64 {
			dst[di] = cur
			di++
			fill -= 64
			if fill > 0 {
				cur = v >> (w - fill)
			} else {
				cur = 0
			}
		}
	}
	if fill > 0 {
		dst[di] = cur
	}
}

// UnpackGeneric is the width-parametric scalar unpacking loop. It reads
// len(dst) values of w bits from the beginning of src. w must be in
// [1, 64].
func UnpackGeneric(dst, src []uint64, w uint, base uint64) {
	m := mask(w)
	var fill uint
	si := 0
	for i := range dst {
		var v uint64
		if fill+w <= 64 {
			v = (src[si] >> fill) & m
			fill += w
			if fill == 64 {
				fill = 0
				si++
			}
		} else {
			lo := src[si] >> fill
			si++
			hi := src[si] << (64 - fill)
			v = (lo | hi) & m
			fill = fill + w - 64
		}
		dst[i] = v + base
	}
}

// UnpackBlockGeneric exposes the generic loop at block granularity so
// the Figure 4 ablation can time "Scalar" against the specialized
// kernels on identical inputs.
func UnpackBlockGeneric(dst, src []uint64, n int, w uint, base uint64) {
	if w == 0 {
		for i := 0; i < n; i++ {
			dst[i] = base
		}
		return
	}
	UnpackGeneric(dst[:n], src, w, base)
}
