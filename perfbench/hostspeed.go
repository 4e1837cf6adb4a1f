package main

import (
	"runtime"
	"time"
)

// The reference host shares its physical cores with other guests. When a
// neighbour runs on the other hyperthread of the core a vCPU sits on, code
// that keeps several instructions in flight each cycle slows by up to half;
// a latency-bound loop barely notices. The simulators are of the first
// kind, and their CPU-time rates swing twofold within seconds with it
// (3.4 to 6.8 Mcycles/s across the rounds of one run), which neither CPU
// time nor taking steal out can remove.
//
// So the end-to-end times and the engine layers are calibrated: scaled by
// how fast a fixed reference loop, which is about as sensitive to a busy
// sibling as the engines are, runs at the same time. refLoop is that loop;
// it lives in the benchmark, not in the code under test, so no change to
// that code moves it.

// refNominal is refLoop's CPU time on an uncontended core of the reference
// host (Intel Xeon VM, 2 vCPUs). A calibrated second is a CPU second scaled
// to that speed: on a core where refLoop takes twice as long, one CPU
// second counts as half a calibrated second.
const refNominal = 850 * time.Microsecond

var (
	refSink  uint64
	refTable = func() []uint64 {
		t := make([]uint64, 2048) // 16 KB: stays in L1
		for i := range t {
			t[i] = uint64(i) * 0x9e3779b97f4a7c15
		}
		return t
	}()
)

// refLoop runs the reference loop once, about 0.85 ms of CPU on an idle
// core, and returns the CPU time it took on the calling thread: twelve
// independent single-cycle integer chains, then L1 loads and stores with
// predictable branches.
func refLoop() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	var a, b, c, d, e, f, g, h, j, k, l, m uint64 = 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12
	for i := uint64(0); i < 150000; i++ {
		a += i
		b ^= i
		c += b
		d ^= a
		e += d >> 1
		f ^= c << 1
		g += i >> 2
		h ^= g
		j += h
		k ^= j >> 3
		l += k
		m ^= l << 2
	}
	t := refTable
	for i := uint64(0); i < 200000; i++ {
		a += t[i&2047]
		b ^= t[(i*7)&2047]
		if i&3 == 0 {
			c += a >> 3
		} else {
			d ^= b << 1
		}
		t[(i*13)&2047] = a ^ d
	}
	refSink += a + b + c + d + e + f + g + h + j + k + l + m
	return threadCPU() - c0
}

// slowdown is how much slower than nominal the host ran refLoop over the
// given calls, at their median: above 1 on a contended core. Dividing a
// CPU time by it gives calibrated time; multiplying a rate by it gives a
// calibrated rate.
func slowdown(ref []time.Duration) float64 {
	if len(ref) == 0 {
		return 1
	}
	return durQuantile(ref, 0.5, func(d time.Duration) float64 { return float64(d) }) / float64(refNominal)
}

// refInterval is how often sampleHostSpeed runs refLoop: 0.4% of one vCPU.
const refInterval = 200 * time.Millisecond

// sampleHostSpeed runs refLoop every refInterval on a goroutine of its own
// until the returned stop function is called; stop waits for it to end and
// returns every sample. It calibrates loads that keep every vCPU busy,
// where refLoop cannot run between units of work.
func sampleHostSpeed() (stop func() []time.Duration) {
	var samples []time.Duration
	done := make(chan struct{})
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		tick := time.NewTicker(refInterval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				samples = append(samples, refLoop())
			}
		}
	}()
	return func() []time.Duration {
		close(done)
		<-ended
		return samples
	}
}
