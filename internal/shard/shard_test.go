package shard

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"retri/internal/mobility"
	"retri/internal/xrand"
)

// --- geometry ---

// TestGeometryTiling: every point maps to the tile whose rect contains it.
func TestGeometryTiling(t *testing.T) {
	g := SquareGeometry(12, 10)
	if g.Tiles() < 12 {
		t.Fatalf("SquareGeometry(12): only %d tiles", g.Tiles())
	}
	for i := 0; i < g.Tiles(); i++ {
		x0, y0, x1, y1 := g.Rect(i)
		cx, cy := (x0+x1)/2, (y0+y1)/2
		if got := g.TileOf(cx, cy); got != i {
			t.Errorf("TileOf(center of %d) = %d", i, got)
		}
	}
	// Out-of-world points clamp to border tiles rather than panicking.
	if got := g.TileOf(-5, -5); got != 0 {
		t.Errorf("TileOf(-5,-5) = %d, want 0", got)
	}
	if got := g.TileOf(g.W()+1, g.H()+1); got != g.Tiles()-1 {
		t.Errorf("TileOf(beyond) = %d, want %d", got, g.Tiles()-1)
	}
}

// TestTilesTouching: the routed set must contain every tile that holds a
// point within range, for senders at centers, edges and corners.
func TestTilesTouching(t *testing.T) {
	g := SquareGeometry(9, 10) // 3x3 world
	cases := []struct {
		x, y float64
		want []int32
	}{
		{15, 15, []int32{0, 1, 2, 3, 4, 5, 6, 7, 8}}, // center of middle tile: full 3x3 (r == tile side)
		{5, 5, []int32{0, 1, 3, 4}},                  // center of corner tile
		{0.5, 0.5, []int32{0, 1, 3}},                 // deep corner: diagonal tile 4's corner (10,10) is ~13.4 away, out of range
	}
	for _, c := range cases {
		got := g.TilesTouching(c.x, c.y, 10, nil)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("TilesTouching(%g,%g): got %v want %v", c.x, c.y, got, c.want)
		}
	}
	// Conservative completeness on a grid of probe points: if any point p
	// in tile j is within r of (x, y), j must be in the routed set.
	g2 := SquareGeometry(16, 7)
	const r = 7.0
	for _, src := range [][2]float64{{3, 3}, {13.9, 7.1}, {20, 20}, {27.9, 0.1}} {
		routed := map[int32]bool{}
		for _, ti := range g2.TilesTouching(src[0], src[1], r, nil) {
			routed[ti] = true
		}
		for px := 0.0; px < g2.W(); px += 1.7 {
			for py := 0.0; py < g2.H(); py += 1.7 {
				dx, dy := px-src[0], py-src[1]
				if dx*dx+dy*dy <= r*r && !routed[int32(g2.TileOf(px, py))] {
					t.Fatalf("sender (%g,%g): in-range point (%g,%g) in unrouted tile %d",
						src[0], src[1], px, py, g2.TileOf(px, py))
				}
			}
		}
	}
}

// --- sensor cluster ---

func testConfig(nodes, perTile int) SensorConfig {
	return SensorConfig{
		Nodes:        nodes,
		NodesPerTile: perTile,
		Range:        10,
		Duty:         mobility.DutyCycle{MeanUp: 400 * time.Millisecond, MeanDown: 600 * time.Millisecond},
		SendGap:      60 * time.Millisecond,
		Fragments:    3,
		FrameAir:     2 * time.Millisecond,
		FragGap:      time.Millisecond,
		DataBits:     384,
		Adaptive:     true,
		MinBits:      2,
		MaxBits:      24,
		FrameLoss:    0.02,
		ProbeEvery:   100 * time.Millisecond,
		AuditEvery:   1, // audit everything in tests
	}
}

func runCluster(t *testing.T, cfg SensorConfig, seed uint64, workers int, horizon time.Duration) (Counters, RunStats) {
	t.Helper()
	cl, err := NewCluster(cfg, xrand.NewSource(seed))
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(cfg.FrameAir, workers, cl.Regions()...)
	defer eng.Close()
	eng.Router = cl
	eng.OnBarrier = cl.OnBarrier
	eng.Run(horizon)
	return cl.Counters(), eng.Stats()
}

// TestClusterDeterminism: a multi-tile trial must produce identical
// counters at every worker count — the byte-stability contract. Run under
// -race this also exercises the absence of cross-tile data races.
func TestClusterDeterminism(t *testing.T) {
	cfg := testConfig(600, 40) // 15 tiles, forced boundary traffic
	ref, refStats := runCluster(t, cfg, 7, 1, time.Second)
	if ref.Offered == 0 || ref.TruthPairs == 0 {
		t.Fatalf("degenerate trial: %+v", ref)
	}
	for _, workers := range []int{2, 4, 7} {
		got, gotStats := runCluster(t, cfg, 7, workers, time.Second)
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("workers=%d: counters diverge\nref: %+v\ngot: %+v", workers, ref, got)
		}
		if refStats != gotStats {
			t.Errorf("workers=%d: driver stats diverge: %+v vs %+v", workers, refStats, gotStats)
		}
	}
}

// TestClusterSeedSensitivity: different seeds must give different worlds.
func TestClusterSeedSensitivity(t *testing.T) {
	cfg := testConfig(200, 40)
	a, _ := runCluster(t, cfg, 1, 2, time.Second)
	b, _ := runCluster(t, cfg, 2, 2, time.Second)
	if reflect.DeepEqual(a, b) {
		t.Fatal("seeds 1 and 2 produced identical counters")
	}
}

// TestClusterInvariants: audited runs must uphold the paper's invariants
// and basic conservation between the reassemblers.
func TestClusterInvariants(t *testing.T) {
	cfg := testConfig(600, 40)
	ctr, stats := runCluster(t, cfg, 11, 4, time.Second)
	if ctr.Misdeliveries != 0 {
		t.Errorf("never-misdeliver violated %d times", ctr.Misdeliveries)
	}
	if ctr.FreshnessViolations != 0 {
		t.Errorf("identifier freshness violated %d times", ctr.FreshnessViolations)
	}
	if ctr.Delivered > ctr.TruthPairs {
		t.Errorf("delivered %d > physically complete %d", ctr.Delivered, ctr.TruthPairs)
	}
	if ctr.AuditedDeliveries != ctr.Delivered {
		t.Errorf("AuditEvery=1 but audited %d of %d deliveries", ctr.AuditedDeliveries, ctr.Delivered)
	}
	if cr := ctr.CollisionRate(); cr < 0 || cr > 1 {
		t.Errorf("collision rate %g out of range", cr)
	}
	if ctr.Probes == 0 || ctr.MeanT() < 1 {
		t.Errorf("probes broken: %d probes, meanT %g", ctr.Probes, ctr.MeanT())
	}
	if stats.Exchanged == 0 {
		t.Error("no records crossed the barrier in a multi-tile trial")
	}
	if w := ctr.MeanWidth(); w < float64(cfg.MinBits) || w > float64(cfg.MaxBits) {
		t.Errorf("mean width %g outside [%d, %d]", w, cfg.MinBits, cfg.MaxBits)
	}
}

// TestClusterFixedWidthArm: the fixed arm must report exactly FixedBits.
func TestClusterFixedWidthArm(t *testing.T) {
	cfg := testConfig(200, 40)
	cfg.Adaptive = false
	cfg.FixedBits = 8
	ctr, _ := runCluster(t, cfg, 5, 2, time.Second)
	if ctr.Offered == 0 {
		t.Fatal("no transactions offered")
	}
	if w := ctr.MeanWidth(); w != 8 {
		t.Errorf("fixed arm mean width %g, want 8", w)
	}
}

// TestSensorConfigValidate rejects the corners the model cannot represent.
func TestSensorConfigValidate(t *testing.T) {
	good := testConfig(100, 10)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(*SensorConfig){
		func(c *SensorConfig) { c.Nodes = 0 },
		func(c *SensorConfig) { c.NodesPerTile = 0 },
		func(c *SensorConfig) { c.NodesPerTile = maxNodesPerTile + 1 },
		func(c *SensorConfig) { c.Range = 0 },
		func(c *SensorConfig) { c.SendGap = 0 },
		func(c *SensorConfig) { c.Fragments = 0 },
		func(c *SensorConfig) { c.Fragments = 17 },
		func(c *SensorConfig) { c.FrameAir = 0 },
		func(c *SensorConfig) { c.FragGap = -1 },
		func(c *SensorConfig) { c.DataBits = 0 },
		func(c *SensorConfig) { c.MinBits = 0 },
		func(c *SensorConfig) { c.MinBits = 12; c.MaxBits = 4 },
		func(c *SensorConfig) { c.Adaptive = false; c.FixedBits = 0 },
		func(c *SensorConfig) { c.FrameLoss = 1 },
		func(c *SensorConfig) { c.AuditEvery = -1 },
		func(c *SensorConfig) { c.Duty.MeanUp = 0 },
	}
	for i, mut := range bad {
		c := good
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// --- overlap scan ---

// fullScan is the reference overlap search: every window record whose
// airtime overlaps r's, skipping r itself and r's sender, in window order.
func fullScan(window []Record, r *Record) []int32 {
	var out []int32
	for j := range window {
		o := &window[j]
		if o.Seq == r.Seq || o.From == r.From {
			continue
		}
		if o.Start < r.End && o.End > r.Start {
			out = append(out, int32(j))
		}
	}
	return out
}

// TestOverlappersMatchesFullScan: the bounded search must return exactly
// the full scan's indices, in the same order, on (End, Seq)-sorted
// windows with one airtime. Random starts sit on a 0.25 ms grid, a
// sixteenth of the airtime, so records that merely touch (o.End ==
// r.Start, o.Start == r.End), share an End or share a sender are common.
func TestOverlappersMatchesFullScan(t *testing.T) {
	const air = 4 * time.Millisecond
	mk := func(seq uint64, from uint32, start time.Duration) Record {
		return Record{Seq: seq, From: from, Start: start, End: start + air}
	}
	check := func(name string, window []Record, r *Record) {
		t.Helper()
		got := overlappers(window, r, nil)
		if want := fullScan(window, r); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: overlappers(%+v) = %v, full scan %v", name, *r, got, want)
		}
	}

	probe := mk(1, 1, 10*time.Millisecond)
	check("empty window", nil, &probe)

	// Neighbors that only touch r (End == r.Start, Start == r.End) do not
	// overlap it; the straddlers do. Every record also takes a turn as r,
	// so r sits at either end of the window too.
	edges := []Record{
		mk(10, 2, 2*time.Millisecond),  // ends at r.Start
		mk(11, 3, 3*time.Millisecond),  // straddles r.Start
		mk(12, 4, 6*time.Millisecond),  // r
		mk(13, 5, 9*time.Millisecond),  // straddles r.End
		mk(14, 6, 10*time.Millisecond), // starts at r.End
	}
	slices.SortFunc(edges, byEndSeq)
	for i := range edges {
		check("boundary", edges, &edges[i])
	}
	r := mk(12, 4, 6*time.Millisecond)
	if got := overlappers(edges, &r, nil); len(got) != 2 {
		t.Errorf("boundary: %d overlappers, want the 2 straddlers", len(got))
	}

	rng := xrand.NewSource(17).Stream("test", "overlap")
	for trial := 0; trial < 200; trial++ {
		n := rng.IntN(64)
		window := make([]Record, n)
		for i := range window {
			start := time.Duration(rng.IntN(200)) * time.Millisecond / 4
			window[i] = mk(uint64(rng.IntN(1<<20))<<8|uint64(i), uint32(rng.IntN(8)), start)
		}
		slices.SortFunc(window, byEndSeq)
		for i := range window { // r inside the window, first and last included
			check("random", window, &window[i])
		}
		// r absent from the window, before, among and after its records.
		for s := -air; s <= 55*time.Millisecond; s += time.Millisecond {
			probe := mk(1<<40, 99, s)
			check("random probe", window, &probe)
		}
	}
}

// TestWindowPreconditions pins what overlappers relies on in a multi-tile
// run: after every barrier each tile's window is sorted by (End, Seq)
// and every record in it lasts exactly FrameAir. It also pins the
// per-window prune: no window keeps a record that ended by
// now − keepAirtimes·FrameAir.
func TestWindowPreconditions(t *testing.T) {
	cfg := testConfig(600, 40)
	cl, err := NewCluster(cfg, xrand.NewSource(7))
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(cfg.FrameAir, 2, cl.Regions()...)
	defer eng.Close()
	eng.Router = cl
	checked := 0
	eng.OnBarrier = func(now time.Duration) {
		cl.OnBarrier(now)
		cut := now - keepAirtimes*cfg.FrameAir
		for ti, tile := range cl.tiles {
			for j, r := range tile.window {
				if r.End <= cut {
					t.Fatalf("t=%v tile %d: record %d ended at %v, at or before the prune cut %v", now, ti, r.Seq, r.End, cut)
				}
				if r.End-r.Start != cfg.FrameAir {
					t.Fatalf("t=%v tile %d: record %d lasts %v, want %v", now, ti, r.Seq, r.End-r.Start, cfg.FrameAir)
				}
				if j > 0 && byEndSeq(tile.window[j-1], r) >= 0 {
					t.Fatalf("t=%v tile %d: window unsorted at %d", now, ti, j)
				}
			}
			checked += len(tile.window)
		}
	}
	eng.Run(time.Second)
	if checked == 0 {
		t.Fatal("no window records to check")
	}
}

// --- allocation budget ---

// steadyWindowAllocBudget caps heap allocations per steadyWindows-window
// Run of the warmed benchmark world: the 5 measured plus three of
// headroom. The two phase closures and the window end they share cost
// three per Run; the rest is capacity growth of reassembly tables, awake
// lists, probe scratch and inboxes. Windows, pool rounds, sorts, prunes
// and overlap searches allocate nothing.
const steadyWindowAllocBudget = 8

// TestSteadyWindowAllocBudget holds a warmed window to its allocation
// budget at several worker counts.
func TestSteadyWindowAllocBudget(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		cl, eng := benchCluster(t, workers, 2*time.Second)
		allocs := testing.AllocsPerRun(10, func() {
			eng.Run(eng.Now() + steadyWindows*cl.cfg.FrameAir)
		})
		eng.Close()
		if allocs > steadyWindowAllocBudget {
			t.Errorf("workers=%d: %.1f allocs per %d-window run, budget %d",
				workers, allocs, steadyWindows, steadyWindowAllocBudget)
		}
	}
}
