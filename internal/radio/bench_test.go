package radio

import (
	"io"
	"math"
	"testing"

	"retri/internal/metrics"
	"retri/internal/sim"
	"retri/internal/trace"
	"retri/internal/xrand"
)

// benchWorkload drives one contention-heavy round-robin broadcast workload
// through a fresh medium with the given tracer. The workload is identical
// across variants so the benchmark isolates the tracer's cost in the radio
// hot path (Medium.emit on every send and reception outcome).
func benchWorkload(b *testing.B, tracer trace.Tracer) {
	benchWorkloadFate(b, tracer, nil)
}

// benchWorkloadFate is benchWorkload with a fate observer installed, so
// the span-tracing feed's cost is measurable against the same workload.
func benchWorkloadFate(b *testing.B, tracer trace.Tracer, fates FateObserver) {
	b.Helper()
	b.ReportAllocs()
	payload := []byte{0xAB, 0xCD, 0xEF}
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		rng := xrand.NewSource(99).Stream("bench")
		m := NewMedium(eng, FullMesh{}, DefaultParams(), rng)
		m.SetTracer(tracer)
		if fates != nil {
			m.SetFateObserver(fates)
		}
		radios := make([]*Radio, 6)
		for j := range radios {
			radios[j] = m.MustAttach(NodeID(j))
			radios[j].SetHandler(func(Frame) {})
		}
		for round := 0; round < 10; round++ {
			for _, r := range radios {
				if err := r.Send(payload, 0); err != nil {
					b.Fatal(err)
				}
			}
			eng.Run()
		}
	}
}

// BenchmarkMediumNoTracer is the disabled path: the observability layer's
// contract is that this stays within ~2% of a build without the layer at
// all (a nil check per emit site).
func BenchmarkMediumNoTracer(b *testing.B) {
	benchWorkload(b, nil)
}

// BenchmarkMediumMetricsBridge measures the capture path used per trial by
// the experiment layer: trace events folded straight into counters.
func BenchmarkMediumMetricsBridge(b *testing.B) {
	benchWorkload(b, metrics.FromTrace(metrics.NewRegistry()))
}

// BenchmarkMediumJSONWriter measures the heaviest tracer: every event
// serialized to JSON Lines (sunk into io.Discard so only encoding cost is
// measured, not disk).
func BenchmarkMediumJSONWriter(b *testing.B) {
	benchWorkload(b, trace.NewJSONWriter(io.Discard))
}

// nopFateObserver is interface dispatch with an empty body on every send
// and reception verdict — the span tracer's hook machinery minus the
// span tracer. It upper-bounds what the hook sites can cost a run that
// never asked for spans (the disabled path is one nil check per site,
// strictly cheaper than this dispatch).
type nopFateObserver struct{}

func (nopFateObserver) FrameSent(Frame)               {}
func (nopFateObserver) FrameFate(NodeID, Frame, Fate) {}

// BenchmarkMediumNilSpanPath is the disabled span path: no fate observer,
// so every fate site is a nil check. This is the configuration every
// flagless figure runs in; its trajectory is gated by benchcompare.
func BenchmarkMediumNilSpanPath(b *testing.B) {
	benchWorkloadFate(b, nil, nil)
}

// BenchmarkMediumFateObserver is the same workload with the fate feed
// dispatching (to a no-op), isolating the hook overhead itself.
func BenchmarkMediumFateObserver(b *testing.B) {
	benchWorkloadFate(b, nil, nopFateObserver{})
}

// BenchmarkMediumSteadyUnitDisk is the medium's cost per frame at steady
// state on a unit disk: 13 radios on the multihop sweep's 90×90 field at
// range 18, built once and warmed by one round, so each op is one send
// round and the engine draining it, with no world set-up in it.
func BenchmarkMediumSteadyUnitDisk(b *testing.B) {
	eng := sim.NewEngine()
	disk := NewUnitDisk(18)
	m := NewMedium(eng, disk, DefaultParams(), xrand.NewSource(99).Stream("bench"))
	field := xrand.NewSource(5).Stream("field")
	radios := make([]*Radio, 13)
	for i := range radios {
		disk.Place(NodeID(i), Point{X: field.Float64() * 90, Y: field.Float64() * 90})
		radios[i] = m.MustAttach(NodeID(i))
		radios[i].SetHandler(func(Frame) {})
	}
	payload := []byte{0xAB, 0xCD, 0xEF}
	round := func() {
		for _, r := range radios {
			if err := r.Send(payload, 0); err != nil {
				b.Fatal(err)
			}
		}
		eng.Run()
	}
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

// benchDisk builds a populated unit disk for the mobility benchmarks:
// 256 nodes scattered over a 10×10-cell area.
func benchDisk() *UnitDisk {
	u := NewUnitDisk(10)
	rng := xrand.NewSource(7).Stream("disk")
	for i := 0; i < 256; i++ {
		u.Place(NodeID(i), Point{X: rng.Float64() * 100, Y: rng.Float64() * 100})
	}
	return u
}

// BenchmarkUnitDiskConnectedUnderMoves interleaves moves with connectivity
// checks — the dynamics workload. The spatial grid must keep Place cheap
// (two map ops within a cell) without slowing the Connected hot path the
// medium hits on every delivery.
func BenchmarkUnitDiskConnectedUnderMoves(b *testing.B) {
	u := benchDisk()
	rng := xrand.NewSource(7).Stream("moves")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := NodeID(rng.IntN(256))
		u.Place(id, Point{X: rng.Float64() * 100, Y: rng.Float64() * 100})
		for j := 0; j < 8; j++ {
			u.Connected(id, NodeID(rng.IntN(256)))
		}
	}
}

// BenchmarkUnitDiskNeighbors measures the grid-backed range query against
// the O(n) scan it replaces (every experiment-side omniscient density
// probe is one of these).
func BenchmarkUnitDiskNeighbors(b *testing.B) {
	u := benchDisk()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Neighbors(NodeID(i % 256))
	}
}

// benchDisk100k is a 100_000-node world at massive-sweep density: ~500
// nodes per range-sized cell block region, range 10, area scaled to hold
// the population at the same spatial density the sharded sweep uses.
func benchDisk100k() *UnitDisk {
	const n = 100_000
	u := NewUnitDisk(10)
	// 200 tiles of side 10 per axis hold 100k nodes at 500/tile... keep it
	// simple: a square world sized for 5 nodes per unit^2 / 500 per tile.
	side := 10.0 * math.Sqrt(float64(n)/500.0)
	rng := xrand.NewSource(3).Stream("topo100k")
	for i := 0; i < n; i++ {
		u.Place(NodeID(i), Point{X: rng.Float64() * side, Y: rng.Float64() * side})
	}
	return u
}

// BenchmarkUnitDiskNeighborsAppend100k is the allocation-free range query
// on the 100k-node world, buffer reused across queries as the sharded
// core's per-window scans do. The gate ratchets this at 0 allocs/op.
func BenchmarkUnitDiskNeighborsAppend100k(b *testing.B) {
	u := benchDisk100k()
	buf := make([]NodeID, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = u.NeighborsAppend(NodeID(i%100_000), buf[:0])
	}
}
