package shard

import (
	"testing"
	"time"

	"retri/internal/xrand"
)

// BenchmarkShardEngineEvents is the sharded core's throughput benchmark:
// one 2000-node, 50-tile duty-cycled trial per op, single worker so the
// number is a per-core rate. The events/sec metric (heap events plus
// reception verdicts per second of wall clock) is the headline the
// massive sweep reports at 10^5–10^6 nodes.
func BenchmarkShardEngineEvents(b *testing.B) {
	var events uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cl, eng := benchCluster(b, 1, 250*time.Millisecond)
		ctr := cl.Counters()
		events += ctr.Events + ctr.Verdicts
		eng.Close()
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	}
}

// BenchmarkShardSteadyWindows is the shard's steady-state rung: the same
// world as BenchmarkShardEngineEvents, built and warmed outside the timer,
// then steadyWindows lookahead windows per op on a single worker. World
// setup is excluded, so events/sec is the settled per-core rate. The
// warm-up runs 10 s of simulated time, after which table and buffer
// capacities grow only at rare new occupancy peaks, so allocs/op reads
// exactly the three a Run costs (after a 2 s warm-up,
// TestSteadyWindowAllocBudget still measures 5 per Run).
func BenchmarkShardSteadyWindows(b *testing.B) {
	cl, eng := benchCluster(b, 1, 10*time.Second)
	defer eng.Close()
	before := cl.Counters()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Run(eng.Now() + steadyWindows*cl.cfg.FrameAir)
	}
	b.StopTimer()
	after := cl.Counters()
	if b.Elapsed() > 0 {
		events := after.Events + after.Verdicts - before.Events - before.Verdicts
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	}
}

// BenchmarkShardBoundaryExchange isolates the barrier's sequential cost:
// routing a window's record batch to per-tile inboxes. Per op it routes
// 1024 records across a 7x7-tile world with a reused inbox, the exact
// work the driver does between Advance and Absorb.
func BenchmarkShardBoundaryExchange(b *testing.B) {
	cfg := testConfig(2000, 40) // 50 tiles
	cl, err := NewCluster(cfg, xrand.NewSource(11))
	if err != nil {
		b.Fatal(err)
	}
	g := cl.Geom()
	rng := xrand.NewSource(13).Stream("bench", "records")
	records := make([]Record, 1024)
	for i := range records {
		records[i] = Record{
			Seq:   uint64(i),
			From:  uint32(rng.IntN(2000)),
			X:     float32(rng.Float64() * g.W()),
			Y:     float32(rng.Float64() * g.H()),
			Start: time.Duration(i) * time.Microsecond,
			End:   time.Duration(i)*time.Microsecond + 2*time.Millisecond,
			WK:    rng.Uint64(),
		}
	}
	inbox := make([][]Record, g.Tiles())
	var route []int32
	exchange := func() {
		for t := range inbox {
			inbox[t] = inbox[t][:0]
		}
		for j := range records {
			route = cl.Route(&records[j], route[:0])
			for _, ti := range route {
				inbox[ti] = append(inbox[ti], records[j])
			}
		}
	}
	exchange() // warm the inbox capacities: steady state is what the driver runs in
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exchange()
	}
}

// steadyWindows is how many lookahead windows one steady-state Run covers.
const steadyWindows = 50

// benchCluster builds the 2,000-node, 50-tile benchmark world on the given
// worker count and runs it to horizon. Run for long enough, it leaves the
// window, inbox, emit-buffer and reassembly-table capacities warmed for a
// steady-state measurement.
func benchCluster(tb testing.TB, workers int, horizon time.Duration) (*Cluster, *Engine) {
	tb.Helper()
	cfg := testConfig(2000, 40)
	cfg.ProbeEvery = 250 * time.Millisecond
	cfg.AuditEvery = 16
	cl, err := NewCluster(cfg, xrand.NewSource(9))
	if err != nil {
		tb.Fatal(err)
	}
	eng := NewEngine(cfg.FrameAir, workers, cl.Regions()...)
	eng.Router = cl
	eng.OnBarrier = cl.OnBarrier
	eng.Run(horizon)
	return cl, eng
}
