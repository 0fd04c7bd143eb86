package bench

import (
	"math"
	"time"
)

// Shared hosts drift: for minutes at a time the same sweep runs 10-40%
// slower while neighbours load the machine's shared caches and memory.
// A pure-arithmetic probe slows with them, less but in step, and repeats
// within a few percent on a quiet host. Every run and set-up child times
// the probe after its sweep, and the parent multiplies the run's wall_s
// and setup_s samples by hostFactor of the run's median probe time, so
// both read as seconds on the reference host in its quiet state.
//
// The exponent is measured. Over three experiments on the reference host
// (162 sweeps of fig4-saturated, each paired with a probe, grouped into
// runs of 2-4) the sweep's log time moved 1.4 to 2.3 times as far as the
// probe's; scaling by the probe ratio to the power 1.5 cut the spread of
// run medians by about 45% on average, the plain ratio by about 35%.
// Allocation- and cache-bound kernels tracked worse than arithmetic.
//
// The probe shares no code with the repository, so no change to the
// program can move it; changing the probe, its reference time or the
// exponent redefines wall_s and setup_s.

// probeReferenceSeconds is the probe's time on the reference host in its
// quiet state: a 2-vCPU Intel Xeon VM, Go 1.24.
const probeReferenceSeconds = 0.1

// probeRounds sizes the probe to probeReferenceSeconds on that host.
const probeRounds = 50_000_000

var probeSink uint64

// probe runs a fixed xorshift loop and returns its wall time in seconds.
func probe() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < probeRounds; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	probeSink = x
	return time.Since(start).Seconds()
}

// hostFactor converts times measured while the probe took probeSeconds to
// the reference host's quiet state.
func hostFactor(probeSeconds float64) float64 {
	return math.Pow(probeReferenceSeconds/probeSeconds, 1.5)
}
