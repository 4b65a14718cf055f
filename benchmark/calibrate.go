package main

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// refCalMVs is the reference kernel's rate, in MV/s, on the host the
// benchmark was calibrated on (see README.md). Host-normalized metrics
// are expressed in that host's units: on a host running the kernel at
// this rate the normalization factor is 1.
const refCalMVs = 900.0

// calBuf is the reference kernel's input: 64Ki xorshift64 words, the
// same buffer and fold the gauntlet calibrates with. It is pure CPU
// work on a buffer that fits in L2, so its rate tracks how fast this
// process's core runs right now and nothing about the code under test.
var calBuf = func() []uint64 {
	buf := make([]uint64, 1<<16)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = x
	}
	return buf
}()

// calSink keeps the fold observable so the compiler keeps the loop.
var calSink atomic.Uint64

// calibrate runs the reference kernel back to back for d on one
// goroutine per client, so every CPU the servers share is sampled, and
// returns the kernel's rate per goroutine in MV/s (words folded per
// microsecond).
func calibrate(d time.Duration) float64 {
	var words atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				s := uint64(0)
				for _, v := range calBuf {
					s += bits.RotateLeft64(v^s, 13)
				}
				calSink.Add(s)
				words.Add(int64(len(calBuf)))
			}
		}()
	}
	wg.Wait()
	return float64(words.Load()) / clients / time.Since(start).Seconds() / 1e6
}
