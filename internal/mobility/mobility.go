// Package mobility is the deterministic dynamics engine: it drives
// radio.UnitDisk positions and node membership from simulation-engine
// timers fed by labelled xrand streams, making the "dynamic" half of the
// paper's title measurable. Three mechanisms compose freely:
//
//   - Movement models: random-waypoint (StartWaypoint) for independent
//     node motion and reference-point group mobility (StartGroup) for
//     clusters that roam together — the two standard sensor-network
//     mobility abstractions.
//   - Churn (Churner): join/leave and sleep/wake duty-cycles, reusing the
//     crash/restart semantics from internal/faults — a node that sleeps or
//     leaves loses its RAM state and relearns the channel on return,
//     exactly the regime RETRI's stateless identifiers are designed for.
//   - Scripts (ParseScript + Director): a parsed, validated schedule for
//     reproducible partition-and-merge scenarios, mirroring faults.Script.
//
// Everything runs on virtual time from explicit RNG streams: a (seed,
// config) pair reproduces the same trajectories exactly, so mobility is
// part of a trial's definition and never perturbs determinism.
package mobility

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"retri/internal/radio"
	"retri/internal/sim"
)

// DefaultTick is the position-update interval for moving nodes. 100ms at
// sensor speeds (~1 m/s) moves a node ~0.1 units per update — far finer
// than a radio range, so connectivity changes are not stair-stepped.
const DefaultTick = 100 * time.Millisecond

// Area is the rectangular deployment region [0, W] × [0, H].
type Area struct {
	W, H float64
}

func (a Area) validate() error {
	if !(a.W > 0) || !(a.H > 0) || math.IsInf(a.W, 0) || math.IsInf(a.H, 0) {
		return fmt.Errorf("mobility: area %vx%v must have positive finite sides", a.W, a.H)
	}
	return nil
}

// randPoint draws a uniform position in the area.
func (a Area) randPoint(rng *rand.Rand) radio.Point {
	return radio.Point{X: rng.Float64() * a.W, Y: rng.Float64() * a.H}
}

// clamp pulls a point back inside the area (group members offset from a
// reference near the boundary would otherwise leave it).
func (a Area) clamp(p radio.Point) radio.Point {
	return radio.Point{X: math.Min(math.Max(p.X, 0), a.W), Y: math.Min(math.Max(p.Y, 0), a.H)}
}

// WaypointConfig parameterizes the random-waypoint model: pick a uniform
// destination, glide there at a uniform speed from [MinSpeed, MaxSpeed],
// pause, repeat.
type WaypointConfig struct {
	// Area bounds all positions.
	Area Area
	// Origin shifts the roaming region to [Origin.X, Origin.X+Area.W] ×
	// [Origin.Y, Origin.Y+Area.H], so a walker (or a group reference) can
	// be confined to a sub-region of a larger field — e.g. a dense cluster
	// roaming only the core of a deployment. The zero value keeps the
	// legacy origin-anchored region.
	Origin radio.Point
	// MinSpeed and MaxSpeed bound the per-leg speed in units per second.
	MinSpeed, MaxSpeed float64
	// Pause is the dwell time at each waypoint (0 for continuous motion).
	Pause time.Duration
	// Tick is the position-update interval (default DefaultTick).
	Tick time.Duration
}

func (c WaypointConfig) withDefaults() WaypointConfig {
	if c.Tick <= 0 {
		c.Tick = DefaultTick
	}
	return c
}

func (c WaypointConfig) validate() error {
	if err := c.Area.validate(); err != nil {
		return err
	}
	if !(c.MinSpeed > 0) || c.MaxSpeed < c.MinSpeed || math.IsInf(c.MaxSpeed, 0) {
		return fmt.Errorf("mobility: speed range [%v, %v] must be positive, finite and ordered", c.MinSpeed, c.MaxSpeed)
	}
	if c.Pause < 0 {
		return fmt.Errorf("mobility: negative pause %v", c.Pause)
	}
	if math.IsInf(c.Origin.X, 0) || math.IsInf(c.Origin.Y, 0) ||
		math.IsNaN(c.Origin.X) || math.IsNaN(c.Origin.Y) {
		return fmt.Errorf("mobility: origin %v must be finite", c.Origin)
	}
	return nil
}

// randPoint draws a uniform position in the (origin-shifted) roaming
// region.
func (c WaypointConfig) randPoint(rng *rand.Rand) radio.Point {
	p := c.Area.randPoint(rng)
	return radio.Point{X: p.X + c.Origin.X, Y: p.Y + c.Origin.Y}
}

// clamp pulls a point back inside the (origin-shifted) roaming region.
func (c WaypointConfig) clamp(p radio.Point) radio.Point {
	q := c.Area.clamp(radio.Point{X: p.X - c.Origin.X, Y: p.Y - c.Origin.Y})
	return radio.Point{X: q.X + c.Origin.X, Y: q.Y + c.Origin.Y}
}

// speed draws a uniform per-leg speed.
func (c WaypointConfig) speed(rng *rand.Rand) float64 {
	return c.MinSpeed + rng.Float64()*(c.MaxSpeed-c.MinSpeed)
}

// Walker is a handle on one node's (or one group reference's) motion.
type Walker struct {
	eng     *sim.Engine
	tick    time.Duration
	horizon time.Duration
	timer   sim.Timer
	stopped bool

	// place is called with the interpolated position on every tick.
	place func(radio.Point)
	// pos is the walker's current interpolated position.
	pos radio.Point
}

// Stop cancels all pending motion; the node freezes where it is.
func (w *Walker) Stop() {
	w.stopped = true
	w.timer.Cancel()
}

// Position returns the walker's current interpolated position.
func (w *Walker) Position() radio.Point { return w.pos }

// glide moves the walker in a straight line to dst at speed (units/sec),
// placing an interpolated position every tick, then calls then. Motion
// freezes at the horizon so a bounded experiment's event queue drains.
func (w *Walker) glide(dst radio.Point, speed float64, then func()) {
	from := w.pos
	dist := from.Dist(dst)
	if dist == 0 || speed <= 0 {
		w.pos = dst
		w.place(dst)
		if then != nil {
			then()
		}
		return
	}
	total := time.Duration(float64(time.Second) * dist / speed)
	start := w.eng.Now()
	var step func()
	step = func() {
		if w.stopped {
			return
		}
		elapsed := w.eng.Now() - start
		if elapsed >= total {
			w.pos = dst
			w.place(dst)
			if then != nil {
				then()
			}
			return
		}
		f := float64(elapsed) / float64(total)
		w.pos = radio.Point{X: from.X + f*(dst.X-from.X), Y: from.Y + f*(dst.Y-from.Y)}
		w.place(w.pos)
		next := w.tick
		if rem := total - elapsed; rem < next {
			next = rem
		}
		if w.eng.Now()+next >= w.horizon {
			return // freeze mid-leg rather than schedule past the horizon
		}
		w.timer = w.eng.Schedule(next, step)
	}
	step()
}

// loop runs the waypoint cycle: choose, glide, pause, repeat, until the
// horizon.
func (w *Walker) loop(cfg WaypointConfig, rng *rand.Rand) {
	if w.stopped || w.eng.Now() >= w.horizon {
		return
	}
	dst := cfg.randPoint(rng)
	w.glide(dst, cfg.speed(rng), func() {
		if cfg.Pause > 0 {
			if w.eng.Now()+cfg.Pause >= w.horizon {
				return
			}
			w.timer = w.eng.Schedule(cfg.Pause, func() {
				w.loop(cfg, rng)
			})
			return
		}
		w.loop(cfg, rng)
	})
}

// StartWaypoint starts the random-waypoint model for one node, driving
// disk.Place from engine timers until the horizon. A node not yet placed
// starts at a uniform random position. Use one labelled rng stream per
// node (e.g. src.Stream("mobility", fmt.Sprint(id))) so trajectories are
// independent and reproducible.
func StartWaypoint(eng *sim.Engine, disk *radio.UnitDisk, id radio.NodeID, cfg WaypointConfig, rng *rand.Rand, horizon time.Duration) (*Walker, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if eng == nil || disk == nil || rng == nil {
		return nil, fmt.Errorf("mobility: StartWaypoint needs an engine, a disk and an rng")
	}
	start, ok := disk.Position(id)
	if !ok {
		start = cfg.randPoint(rng)
	}
	w := &Walker{
		eng:     eng,
		tick:    cfg.Tick,
		horizon: horizon,
		pos:     start,
		place:   func(p radio.Point) { disk.Place(id, p) },
	}
	w.place(start)
	w.loop(cfg, rng)
	return w, nil
}
