// Benchmarks regenerating every figure in the paper's evaluation plus the
// DESIGN.md ablations. Each benchmark target recomputes one experiment;
// simulation-backed targets use trimmed trial counts and durations so a
// bench pass stays tractable — cmd/retri-experiments runs the full-size
// versions and EXPERIMENTS.md records their output.
package retri

import (
	"runtime"
	"testing"
	"time"

	"retri/internal/energy"
	"retri/internal/experiment"
)

// BenchmarkFigure1 regenerates Figure 1: analytic efficiency vs identifier
// size for 16-bit data at T in {16, 256, 65536} against 16/32-bit static.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiment.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		if fig.Optima[16].H != 9 {
			b.Fatalf("optimum drifted: %d bits", fig.Optima[16].H)
		}
	}
}

// BenchmarkFigure2 regenerates Figure 2: the same sweep at 128-bit data.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Figure2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3 regenerates Figure 3: efficiency vs offered load, static
// exhaustion against AFF's graceful degradation.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := experiment.Figure3()
		if len(fig.AFF) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// benchFigure4Config trims the Section 5.1 experiment for bench passes.
func benchFigure4Config() experiment.Figure4Config {
	cfg := experiment.DefaultFigure4Config()
	cfg.Trials = 2
	cfg.Duration = 10 * time.Second
	cfg.IDBits = []int{4, 6, 8}
	return cfg
}

// BenchmarkFigure4 regenerates Figure 4: measured collision rate vs
// identifier size for uniform and listening selection against Equation 4.
func BenchmarkFigure4(b *testing.B) {
	cfg := benchFigure4Config()
	for i := 0; i < b.N; i++ {
		res, err := experiment.Figure4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.TruthDelivered == 0 {
			b.Fatal("no packets delivered")
		}
	}
}

// benchFigure4SweepConfig is the 10-trial sweep used to compare the
// sequential and parallel runners: one identifier width, one selector, so
// the wall-clock ratio isolates trial-level parallelism.
func benchFigure4SweepConfig() experiment.Figure4Config {
	cfg := experiment.DefaultFigure4Config()
	cfg.Trials = 10
	cfg.Duration = 5 * time.Second
	cfg.IDBits = []int{6}
	cfg.Selectors = []experiment.SelectorKind{experiment.SelUniform}
	return cfg
}

// BenchmarkFigure4Sequential runs the 10-trial sweep on one goroutine —
// the baseline for BenchmarkFigure4Parallel.
func BenchmarkFigure4Sequential(b *testing.B) {
	cfg := benchFigure4SweepConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Figure4(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4Parallel runs the same sweep with trials fanned across
// all CPUs. On an n-core machine (n >= 2) wall clock should approach the
// sequential time divided by min(n, trials); outputs are byte-identical
// either way (TestFigure4ParallelByteIdentical).
func BenchmarkFigure4Parallel(b *testing.B) {
	cfg := benchFigure4SweepConfig()
	cfg.Parallelism = runtime.GOMAXPROCS(0)
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Figure4(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationListeningWindow sweeps the listening window size
// (Section 3.2/5.1's 2T rule ablated).
func BenchmarkAblationListeningWindow(b *testing.B) {
	cfg := benchFigure4Config()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.AblationListeningWindow(cfg, 6, []int{1, 10, 40}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationHiddenTerminal compares selectors under the footnote-3
// hidden-sender topology.
func BenchmarkAblationHiddenTerminal(b *testing.B) {
	cfg := benchFigure4Config()
	for i := 0; i < b.N; i++ {
		_, err := experiment.AblationHiddenTerminal(cfg, 5,
			[]experiment.SelectorKind{experiment.SelUniform, experiment.SelListening})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMACOverhead measures Section 4.4: header savings under
// RPC-like vs 802.11-like framing.
func BenchmarkAblationMACOverhead(b *testing.B) {
	base := experiment.DefaultEfficiencyConfig(experiment.Scheme{})
	base.Duration = 10 * time.Second
	base.PacketSize = 2
	schemes := []experiment.Scheme{
		experiment.AFFScheme(9, experiment.SelUniform),
		experiment.StaticScheme(32),
	}
	profiles := []energy.MACProfile{
		energy.BareProfile(), energy.RPCProfile(), energy.IEEE80211Profile(),
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiment.AblationMACOverhead(base, schemes, profiles); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTransactionLengths probes the model's equal-length
// assumption with mixed packet sizes.
func BenchmarkAblationTransactionLengths(b *testing.B) {
	cfg := benchFigure4Config()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.AblationTransactionLengths(cfg, 6, []int{20, 80, 200}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationEstimator compares the two density estimators on
// saturating and bursty workloads (Section 8's future-work question).
func BenchmarkAblationEstimator(b *testing.B) {
	cfg := benchFigure4Config()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.AblationEstimator(cfg, 6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDynAddrChurn compares AFF against dynamic address
// allocation under node churn (Section 2.3's argument).
func BenchmarkAblationDynAddrChurn(b *testing.B) {
	cfg := experiment.DefaultChurnConfig()
	cfg.Nodes = 4
	cfg.Duration = 30 * time.Second
	for i := 0; i < b.N; i++ {
		_, err := experiment.AblationDynAddrChurn(cfg,
			[]time.Duration{10 * time.Second, 30 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaling regenerates the network-growth experiment behind the
// paper's central claim: identifier size tracks density, not system size.
func BenchmarkScaling(b *testing.B) {
	cfg := experiment.DefaultScalingConfig()
	cfg.GridSizes = []int{3, 6}
	cfg.Duration = 20 * time.Second
	cfg.Trials = 1
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunScaling(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// packetPath builds a two-node network and returns a function sending one
// 80-byte packet across it — fragmentation, five radio frames, reassembly —
// and a pointer to the delivered-packet count.
func packetPath(tb testing.TB) (send func(), delivered *int64) {
	net := NewNetwork(WithSeed(1))
	tx, err := net.AddNode(1)
	if err != nil {
		tb.Fatal(err)
	}
	rx, err := net.AddNode(2)
	if err != nil {
		tb.Fatal(err)
	}
	delivered = new(int64)
	rx.OnPacket(func([]byte) { *delivered++ })
	packet := make([]byte, 80)
	return func() {
		if err := tx.Send(packet); err != nil {
			tb.Fatal(err)
		}
		net.Run()
	}, delivered
}

// BenchmarkEndToEndPacket measures one 80-byte packet traversing the whole
// stack: fragmentation, five radio frames, reassembly.
func BenchmarkEndToEndPacket(b *testing.B) {
	send, delivered := packetPath(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
	if *delivered != int64(b.N) {
		b.Fatalf("delivered %d of %d", *delivered, b.N)
	}
}

// packetAllocBudget caps heap allocations per 80-byte packet end to end:
// the 7 measured plus two of headroom. The event loop, per-frame
// callbacks, transmit queue, frame decode and reassembly state allocate
// nothing in steady state; what remains is one sealed buffer per encoded
// frame (the intro's is small enough that two share one tiny-allocator
// block), the fragmenter's transaction fragment list and the delivered
// packet buffer.
const packetAllocBudget = 9

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestEndToEndPacketAllocBudget holds the per-packet path to its
// allocation budget.
func TestEndToEndPacketAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	send, delivered := packetPath(t)
	allocs := testing.AllocsPerRun(200, send)
	if *delivered != 201 {
		t.Fatalf("delivered %d of 201 packets", *delivered)
	}
	if allocs > packetAllocBudget {
		t.Errorf("%.1f allocs per 80-byte packet, budget %d", allocs, packetAllocBudget)
	}
}

// BenchmarkAblationFloodIDBits regenerates the flood duplicate-suppression
// sweep: reach vs dedup-identifier width on a grid.
func BenchmarkAblationFloodIDBits(b *testing.B) {
	cfg := experiment.DefaultFloodConfig()
	cfg.Grid = 4
	cfg.IDBits = []int{3, 8}
	cfg.Duration = 20 * time.Second
	cfg.Trials = 1
	for i := 0; i < b.N; i++ {
		if _, err := experiment.AblationFloodIDBits(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
