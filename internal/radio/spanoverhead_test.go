// Span-hook perf budget for flagless runs.
//
// This file is package radio_test (not radio) on purpose: the <2% budget
// the span layer promises is about what a real, flagless figure pays, so
// the test needs the experiment harness on one side and the raw medium on
// the other — importable together only from an external test package.
package radio_test

import (
	"math"
	"sort"
	"testing"
	"time"

	"retri/internal/experiment"
	"retri/internal/radio"
	"retri/internal/sim"
	"retri/internal/span"
	"retri/internal/xrand"
)

// nopFates is interface dispatch with an empty body on every send and
// reception verdict — the span tracer's hook machinery minus the span
// tracer. A flagless run pays one nil check per site, strictly cheaper
// than this dispatch, so timing the dispatch bounds the flagless cost
// from above.
type nopFates struct{}

func (nopFates) FrameSent(radio.Frame)                           {}
func (nopFates) FrameFate(radio.NodeID, radio.Frame, radio.Fate) {}

const (
	microRadios = 6
	microRounds = 10
)

// microEvents is the exact fate-feed callback count of one microOp:
// every send is one FrameSent plus one FrameFate per other radio
// (deliver runs exactly one fate per in-range receiver, whatever the
// verdict), and all radios are in range under FullMesh.
const microEvents = microRounds * microRadios * microRadios

// microOp is one op of the contention-heavy broadcast workload from the
// medium benchmarks, kept deliberately light so the fate hooks are the
// largest possible share of the work and their per-event cost resolves
// out of the nil-vs-dispatch difference.
func microOp(t *testing.T, fates radio.FateObserver) {
	eng := sim.NewEngine()
	rng := xrand.NewSource(99).Stream("bench")
	m := radio.NewMedium(eng, radio.FullMesh{}, radio.DefaultParams(), rng)
	if fates != nil {
		m.SetFateObserver(fates)
	}
	radios := make([]*radio.Radio, microRadios)
	for j := range radios {
		radios[j] = m.MustAttach(radio.NodeID(j))
		radios[j].SetHandler(func(radio.Frame) {})
	}
	for round := 0; round < microRounds; round++ {
		for _, r := range radios {
			if err := r.Send([]byte{0xAB, 0xCD, 0xEF}, 0); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()
	}
}

// perEventDispatchNS estimates what one fate-feed callback costs, in ns.
// The true cost (sub-ns dispatch, and less for the flagless nil check) is
// far below this machine's run-to-run benchmark noise, so independent
// before/after timings cannot resolve it: the estimator instead times
// nil/dispatch batches back to back in alternation, so slow drift (CPU
// frequency, a noisy neighbour) hits both sides of each pair alike, and
// takes the median of the paired differences.
func perEventDispatchNS(t *testing.T) float64 {
	const (
		opsPerBatch = 50
		pairs       = 101
	)
	batch := func(fates radio.FateObserver) time.Duration {
		start := time.Now()
		for k := 0; k < opsPerBatch; k++ {
			microOp(t, fates)
		}
		return time.Since(start)
	}
	batch(nil) // warm caches and the page allocator before sampling
	batch(nopFates{})
	deltas := make([]float64, 0, pairs)
	for i := 0; i < pairs; i++ {
		base := batch(nil)
		hooked := batch(nopFates{})
		deltas = append(deltas,
			float64(hooked-base)/float64(opsPerBatch)/float64(microEvents))
	}
	sort.Float64s(deltas)
	perEvent := deltas[len(deltas)/2]
	t.Logf("fate dispatch: median %+.2f ns/event over %d pairs (spread %+.2f .. %+.2f)",
		perEvent, pairs, deltas[0], deltas[len(deltas)-1])
	if perEvent < 0 {
		return 0 // dispatch below measurement noise: no observable cost
	}
	return perEvent
}

// TestNilSpanPathOverhead enforces the zero-perturbation perf budget: the
// span hook sites must cost a flagless figure run less than 2%. The
// budget is about a real run, so the test composes two measurements
// instead of asserting a ratio on a stripped-down micro workload (where
// the hooks are by construction a large share of nearly nothing):
//
//  1. per-event hook cost, from paired nil-vs-nop-dispatch timings of the
//     micro workload over its exactly-known event count — an upper bound
//     on the flagless path, which is a nil check per site;
//  2. per-fragment cost of a real flagless strategies trial, with the
//     fragment count taken from a span-ledger run of the same seed (the
//     ledger is passive, so the flagless run sends the same fragments).
//
// Every fragment triggers one FrameSent plus one fate per in-range radio,
// so worst-case hook cost per fragment = (1+density) x per-event cost,
// and the budget is that this stays under 2% of what the figure already
// spends per fragment. Ratios keep the budget meaningful under -race.
func TestNilSpanPathOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing")
	}

	perEvent := perEventDispatchNS(t)

	// Per-fragment cost of a real flagless run.
	const density = 5
	cfg := experiment.StrategiesConfig{
		Run:               experiment.Run{Seed: 1, Duration: 2 * time.Second, Parallelism: 1},
		Strategies:        []string{"uniform"},
		Densities:         []int{density},
		IDBits:            8,
		PacketSize:        80,
		Trials:            1,
		ReassemblyTimeout: 250 * time.Millisecond,
	}
	counting := cfg
	led := span.NewLedger()
	counting.Obs = &experiment.Obs{Spans: led}
	if _, err := experiment.Strategies(counting); err != nil {
		t.Fatal(err)
	}
	frags := led.Report().FragmentsSent
	if frags < 200 {
		t.Fatalf("counting run sent only %d fragments; workload too small to time", frags)
	}
	best := time.Duration(math.MaxInt64)
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := experiment.Strategies(cfg); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	perFragment := float64(best.Nanoseconds()) / float64(frags)

	// Worst case: full dispatch at every site the flagless run nil-checks.
	worst := float64(1+density) * perEvent
	t.Logf("flagless trial %v for %d fragments = %.0f ns/fragment; worst-case hook share %.3f%%",
		best, frags, perFragment, 100*worst/perFragment)
	if worst >= 0.02*perFragment {
		t.Errorf("span hook sites could cost a flagless run %.2f%% per fragment (%.1f ns of %.0f ns), over the 2%% budget",
			100*worst/perFragment, worst, perFragment)
	}
}
