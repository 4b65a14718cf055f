package fastlanes

import (
	"math/bits"
	"time"

	"github.com/goalp/alp/internal/bitpack"
	"github.com/goalp/alp/internal/obs"
)

// SelWords returns the number of uint64 words a selection bitmap needs
// for n values (one bit per value).
func SelWords(n int) int { return (n + 63) / 64 }

// FilterRange is the fused unpack+compare scan kernel: it evaluates
// dlo <= d <= dhi over every encoded value d of the vector and writes a
// selection bitmap into sel (bit i set when value i qualifies),
// returning the number of matches.
//
// The kernel never reconstructs d itself: the bounds are shifted into
// the packed domain once (p = d - Base, so d ∈ [dlo, dhi] ⟺
// p ∈ [dlo-Base, dhi-Base]) and each packed value is range-checked with
// a single unsigned compare — no base addition, no float conversion,
// no data-dependent branches. Vectors whose packed range cannot
// intersect the predicate are rejected from the bounds alone, without
// touching the payload words.
//
// scratch must hold at least f.N int64s; it is used as the unpacking
// buffer and holds the raw packed values (without base) on return, so
// a caller can later materialize selected rows as scratch[i] + Base.
// (When the bounds reject the whole vector the payload is never
// unpacked and scratch is left untouched — but then no bit is set, so
// there is no selected row to materialize.)
// sel must hold at least SelWords(f.N) words; all of them are
// overwritten. The caller must guarantee dhi - Base and dlo - Base do
// not overflow int64 — always true for ALP-encoded integers, which are
// confined to ±2^51.
func (f *FFOR) FilterRange(dlo, dhi int64, sel []uint64, scratch []int64) int {
	// Stage timing: the fused filter is the pushdown hot path, so the
	// collector samples one call in a few rather than bracketing every
	// ~µs kernel with clock reads; disabled, the cost is a predicted
	// branch.
	if o := obs.Active(); o != nil && o.SampleStage(obs.HistStageFilter) {
		start := time.Now()
		count := f.filterRange(dlo, dhi, sel, scratch)
		o.Observe(obs.HistStageFilter, time.Since(start).Nanoseconds())
		return count
	}
	return f.filterRange(dlo, dhi, sel, scratch)
}

func (f *FFOR) filterRange(dlo, dhi int64, sel []uint64, scratch []int64) int {
	n := f.N
	nw := SelWords(n)
	for i := 0; i < nw; i++ {
		sel[i] = 0
	}
	if n == 0 || dlo > dhi {
		return 0
	}

	lo := dlo - f.Base
	hi := dhi - f.Base
	if hi < 0 {
		return 0
	}
	var maxP uint64 = ^uint64(0)
	if f.Width < 64 {
		maxP = (uint64(1) << f.Width) - 1
		if lo > int64(maxP) {
			return 0
		}
	}
	var ulo uint64
	if lo > 0 {
		ulo = uint64(lo)
	}
	uhi := uint64(hi)
	if uhi > maxP {
		uhi = maxP
	}
	span := uhi - ulo

	u := asUint64(scratch[:n])
	bitpack.Unpack(u, f.Words, f.Width, 0)

	count := 0
	for i := 0; i < n; i += 64 {
		var word uint64
		for j, p := range u[i:min(i+64, n)] {
			var b uint64
			if p-ulo <= span {
				b = 1
			}
			// j < 64; the mask lets the compiler drop its shift-overflow
			// check, which made this loop about 20% slower.
			word |= b << (uint(j) & 63)
		}
		sel[i>>6] = word
		count += bits.OnesCount64(word)
	}
	return count
}
