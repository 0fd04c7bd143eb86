package mobility

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"retri/internal/radio"
	"retri/internal/sim"
)

// GroupConfig parameterizes reference-point group mobility (RPGM): a
// virtual reference point follows the random-waypoint model and every
// member rides at a fixed random offset from it, so the cluster roams as
// one — the standard model for patrols, herds and vehicle convoys, and
// the cleanest generator of partition-and-merge dynamics (two groups
// drifting out of mutual range partition the network; drifting back
// merges it).
type GroupConfig struct {
	// Waypoint drives the group's reference point.
	Waypoint WaypointConfig
	// Spread is the maximum member offset radius from the reference.
	Spread float64
}

func (c GroupConfig) validate() error {
	if err := c.Waypoint.withDefaults().validate(); err != nil {
		return err
	}
	if !(c.Spread >= 0) || math.IsInf(c.Spread, 0) {
		return fmt.Errorf("mobility: group spread %v must be non-negative and finite", c.Spread)
	}
	return nil
}

// Group is a handle on one roaming cluster.
type Group struct {
	walker  *Walker
	members []radio.NodeID
	offsets []radio.Point
}

// Stop freezes the whole group.
func (g *Group) Stop() { g.walker.Stop() }

// Reference returns the current virtual reference position.
func (g *Group) Reference() radio.Point { return g.walker.Position() }

// StartGroup starts RPGM for the given members: the virtual reference
// point walks the waypoint model and each tick places every member at its
// fixed offset (drawn once, uniform over the spread disk), clamped to the
// area. Members keep no independent motion; compose with StartWaypoint on
// other nodes for mixed populations.
func StartGroup(eng *sim.Engine, disk *radio.UnitDisk, members []radio.NodeID, cfg GroupConfig, rng *rand.Rand, horizon time.Duration) (*Group, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if eng == nil || disk == nil || rng == nil {
		return nil, fmt.Errorf("mobility: StartGroup needs an engine, a disk and an rng")
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("mobility: empty group")
	}
	wcfg := cfg.Waypoint.withDefaults()
	g := &Group{members: append([]radio.NodeID(nil), members...)}
	g.offsets = make([]radio.Point, len(g.members))
	for i := range g.offsets {
		// Uniform over the disk of radius Spread: r = R*sqrt(u) corrects
		// the area bias of a uniform radius.
		r := cfg.Spread * math.Sqrt(rng.Float64())
		theta := 2 * math.Pi * rng.Float64()
		g.offsets[i] = radio.Point{X: r * math.Cos(theta), Y: r * math.Sin(theta)}
	}
	g.walker = newWalker(eng, wcfg.Tick, horizon, wcfg.randPoint(rng), func(ref radio.Point) {
		for i, id := range g.members {
			g.placeMember(disk, wcfg, id, ref, g.offsets[i])
		}
	})
	g.walker.place(g.walker.pos)
	g.walker.waypoints(wcfg, rng)
	return g, nil
}

func (g *Group) placeMember(disk *radio.UnitDisk, wcfg WaypointConfig, id radio.NodeID, ref, off radio.Point) {
	disk.Place(id, wcfg.clamp(radio.Point{X: ref.X + off.X, Y: ref.Y + off.Y}))
}
