package mobility

import (
	"math"
	"testing"
	"time"

	"retri/internal/radio"
	"retri/internal/sim"
	"retri/internal/xrand"
)

const horizon = 60 * time.Second

func TestWaypointConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	disk := radio.NewUnitDisk(10)
	rng := xrand.NewSource(1).Stream("m")
	bad := []WaypointConfig{
		{Area: Area{W: 0, H: 10}, MinSpeed: 1, MaxSpeed: 2},
		{Area: Area{W: 10, H: 10}, MinSpeed: 0, MaxSpeed: 2},
		{Area: Area{W: 10, H: 10}, MinSpeed: 3, MaxSpeed: 2},
		{Area: Area{W: 10, H: 10}, MinSpeed: 1, MaxSpeed: 2, Pause: -time.Second},
		{Area: Area{W: math.Inf(1), H: 10}, MinSpeed: 1, MaxSpeed: 2},
	}
	for _, cfg := range bad {
		if _, err := StartWaypoint(eng, disk, 0, cfg, rng, horizon); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if _, err := StartWaypoint(nil, disk, 0, WaypointConfig{Area: Area{W: 10, H: 10}, MinSpeed: 1, MaxSpeed: 2}, rng, horizon); err == nil {
		t.Error("nil engine accepted")
	}
}

// TestWaypointStaysInAreaAndMoves runs one node for a virtual minute: it
// must actually move, every sampled position must stay inside the area,
// and the event queue must drain (horizon-gated timers).
func TestWaypointStaysInAreaAndMoves(t *testing.T) {
	eng := sim.NewEngine()
	disk := radio.NewUnitDisk(10)
	rng := xrand.NewSource(42).Stream("mobility", "0")
	cfg := WaypointConfig{Area: Area{W: 50, H: 30}, MinSpeed: 1, MaxSpeed: 3, Pause: 500 * time.Millisecond}
	if _, err := StartWaypoint(eng, disk, 0, cfg, rng, horizon); err != nil {
		t.Fatal(err)
	}
	start, ok := disk.Position(0)
	if !ok {
		t.Fatal("StartWaypoint did not place the node")
	}
	var moved bool
	for i := 0; i < 600; i++ {
		eng.RunUntil(time.Duration(i) * 100 * time.Millisecond)
		p, _ := disk.Position(0)
		if p.X < 0 || p.X > 50 || p.Y < 0 || p.Y > 30 {
			t.Fatalf("position %v left the area", p)
		}
		if p != start {
			moved = true
		}
	}
	eng.Run()
	if !moved {
		t.Error("node never moved")
	}
	if eng.Now() >= horizon+time.Second {
		t.Errorf("events ran to %v, far past the horizon", eng.Now())
	}
}

// TestWaypointDeterministic: same seed, same trajectory — byte-identical
// positions at every sample instant across two independent runs.
func TestWaypointDeterministic(t *testing.T) {
	run := func() []radio.Point {
		eng := sim.NewEngine()
		disk := radio.NewUnitDisk(10)
		for id := radio.NodeID(0); id < 4; id++ {
			rng := xrand.NewSource(7).Stream("mobility", string(rune('a'+id)))
			cfg := WaypointConfig{Area: Area{W: 40, H: 40}, MinSpeed: 0.5, MaxSpeed: 2}
			if _, err := StartWaypoint(eng, disk, id, cfg, rng, horizon); err != nil {
				t.Fatal(err)
			}
		}
		var out []radio.Point
		for s := time.Duration(0); s <= horizon; s += 5 * time.Second {
			eng.RunUntil(s)
			for id := radio.NodeID(0); id < 4; id++ {
				p, _ := disk.Position(id)
				out = append(out, p)
			}
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d: %v != %v — trajectories not deterministic", i, a[i], b[i])
		}
	}
}

// TestWalkerSpeed pins the kinematics: a scripted glide at speed v covers
// distance d in d/v seconds of virtual time, within one tick.
func TestWalkerSpeed(t *testing.T) {
	eng := sim.NewEngine()
	disk := radio.NewUnitDisk(10)
	disk.Place(0, radio.Point{})
	w := newWalker(eng, DefaultTick, horizon, radio.Point{}, func(p radio.Point) { disk.Place(0, p) })
	var doneAt time.Duration
	w.glide(radio.Point{X: 30}, 2, func() { doneAt = eng.Now() }) // 30 units at 2/s = 15s
	eng.Run()
	if got, want := doneAt, 15*time.Second; got < want-DefaultTick || got > want+DefaultTick {
		t.Errorf("glide finished at %v, want ~%v", got, want)
	}
	p, _ := disk.Position(0)
	if p != (radio.Point{X: 30}) {
		t.Errorf("final position %v, want (30, 0)", p)
	}
}

// TestWarmWaypointLegsAllocateNothing: a walker binds its glide step,
// arrival and pause callbacks once, so its waypoint legs (glide, arrival,
// pause, next waypoint) schedule timers without allocating. The walker
// places into a variable, so the disk's own bookkeeping is not counted.
func TestWarmWaypointLegsAllocateNothing(t *testing.T) {
	eng := sim.NewEngine()
	cfg := WaypointConfig{Area: Area{W: 20, H: 20}, MinSpeed: 2, MaxSpeed: 4, Pause: time.Second, Tick: DefaultTick}
	var at radio.Point
	w := newWalker(eng, cfg.Tick, time.Hour, radio.Point{}, func(p radio.Point) { at = p })
	w.waypoints(cfg, xrand.NewSource(3).Stream("m"))
	eng.RunFor(time.Minute) // warm the engine's heap
	before := at
	if allocs := testing.AllocsPerRun(10, func() { eng.RunFor(time.Minute) }); allocs != 0 {
		t.Errorf("%.1f allocations per simulated minute of waypoint legs, want 0", allocs)
	}
	if at == before {
		t.Fatal("walker did not move")
	}
}

func TestGroupMembersRideTogether(t *testing.T) {
	eng := sim.NewEngine()
	disk := radio.NewUnitDisk(10)
	members := []radio.NodeID{0, 1, 2, 3, 4}
	cfg := GroupConfig{
		Waypoint: WaypointConfig{Area: Area{W: 100, H: 100}, MinSpeed: 1, MaxSpeed: 2},
		Spread:   5,
	}
	g, err := StartGroup(eng, disk, members, cfg, xrand.NewSource(9).Stream("group"), horizon)
	if err != nil {
		t.Fatal(err)
	}
	for s := time.Duration(0); s <= horizon; s += 2 * time.Second {
		eng.RunUntil(s)
		ref := g.Reference()
		for _, id := range members {
			p, ok := disk.Position(id)
			if !ok {
				t.Fatalf("member %d unplaced", id)
			}
			// Clamping at the boundary can only shrink the offset, so the
			// spread bound holds everywhere (with float slack).
			if d := p.Dist(ref); d > cfg.Spread+1e-9 {
				t.Fatalf("member %d is %v from the reference, spread is %v", id, d, cfg.Spread)
			}
			if p.X < 0 || p.X > 100 || p.Y < 0 || p.Y > 100 {
				t.Fatalf("member %d at %v left the area", id, p)
			}
		}
	}
	eng.Run()
	if _, err := StartGroup(eng, disk, nil, cfg, xrand.NewSource(9).Stream("g2"), horizon); err == nil {
		t.Error("empty group accepted")
	}
}

// stubNode records the up/down transitions a churner drives.
type stubNode struct {
	up                bool
	crashes, restarts int
}

func (s *stubNode) Crash()   { s.up = false; s.crashes++ }
func (s *stubNode) Restart() { s.up = true; s.restarts++ }

func TestChurnerMembership(t *testing.T) {
	eng := sim.NewEngine()
	disk := radio.NewUnitDisk(10)
	ch := NewChurner(eng, horizon)
	ch.SetDisk(disk)
	n := &stubNode{up: true}
	ch.Register(3, n)
	disk.Place(3, radio.Point{X: 1, Y: 1})

	if !ch.Awake(3) {
		t.Fatal("registered node should start awake")
	}
	if err := ch.Sleep(3); err != nil {
		t.Fatal(err)
	}
	if ch.Awake(3) || n.up {
		t.Error("sleep left the node up")
	}
	if err := ch.Wake(3); err != nil {
		t.Fatal(err)
	}
	if !ch.Awake(3) || !n.up {
		t.Error("wake did not bring the node up")
	}
	if err := ch.Leave(3); err != nil {
		t.Fatal(err)
	}
	if _, ok := disk.Position(3); ok {
		t.Error("leave kept the node's position")
	}
	if err := ch.Join(3, radio.Point{X: 2, Y: 2}); err != nil {
		t.Fatal(err)
	}
	if p, ok := disk.Position(3); !ok || p != (radio.Point{X: 2, Y: 2}) {
		t.Errorf("join placed the node at %v, %v", p, ok)
	}
	c := ch.Counters()
	if c.Sleeps != 1 || c.Wakes != 1 || c.Leaves != 1 || c.Joins != 1 {
		t.Errorf("counters %+v, want one of each", c)
	}
	if err := ch.Sleep(99); err == nil {
		t.Error("churn on an unregistered node accepted")
	}
}

// TestDutyCycleAwakeFraction: the stationary awake probability, including
// the degenerate zero-value cycle.
func TestDutyCycleAwakeFraction(t *testing.T) {
	cases := []struct {
		d    DutyCycle
		want float64
	}{
		{DutyCycle{MeanUp: time.Second, MeanDown: 3 * time.Second}, 0.25},
		{DutyCycle{MeanUp: 200 * time.Millisecond, MeanDown: 9800 * time.Millisecond}, 0.02},
		{DutyCycle{}, 0},
	}
	for _, c := range cases {
		if got := c.d.AwakeFraction(); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("AwakeFraction(%v/%v) = %v, want %v", c.d.MeanUp, c.d.MeanDown, got, c.want)
		}
	}
}

// TestDutyCycleEndsAwake: the horizon contract — no new sleep starts at or
// after the horizon and in-progress sleeps always wake, so a bounded run
// finishes with the node up.
func TestDutyCycleEndsAwake(t *testing.T) {
	eng := sim.NewEngine()
	ch := NewChurner(eng, horizon)
	n := &stubNode{up: true}
	ch.Register(0, n)
	rng := xrand.NewSource(11).Stream("duty")
	if err := ch.StartDutyCycle(0, DutyCycle{MeanUp: 2 * time.Second, MeanDown: time.Second}, rng); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !n.up || !ch.Awake(0) {
		t.Error("duty-cycled node finished the run asleep")
	}
	if n.crashes == 0 {
		t.Error("duty cycle never slept in 60 virtual seconds of ~2s up-times")
	}
	if n.crashes != n.restarts {
		t.Errorf("%d sleeps vs %d wakes — in-progress sleep left hanging", n.crashes, n.restarts)
	}
	if err := ch.StartDutyCycle(0, DutyCycle{MeanUp: 0, MeanDown: time.Second}, rng); err == nil {
		t.Error("invalid duty cycle accepted")
	}
}

// TestChurnCountersAdd: Add folds every membership counter, so trials
// sum into a row's totals without dropping any of them.
func TestChurnCountersAdd(t *testing.T) {
	c := ChurnCounters{Joins: 1, Leaves: 2, Sleeps: 3, Wakes: 4}
	c.Add(c)
	if want := (ChurnCounters{Joins: 2, Leaves: 4, Sleeps: 6, Wakes: 8}); c != want {
		t.Errorf("Add = %+v, want %+v", c, want)
	}
}
