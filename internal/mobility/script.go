package mobility

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"retri/internal/radio"
	"retri/internal/sim"
)

// Op is a scripted mobility/churn action.
type Op string

// Script operations.
const (
	// OpMove teleports a node: <when> move <node> <x> <y>.
	OpMove Op = "move"
	// OpWalk glides a node in a straight line: <when> walk <node> <x> <y> <speed>.
	OpWalk Op = "walk"
	// OpJoin admits a node at a position: <when> join <node> <x> <y>.
	OpJoin Op = "join"
	// OpLeave removes a node: <when> leave <node>.
	OpLeave Op = "leave"
	// OpSleep duty-cycles a node off: <when> sleep <node>.
	OpSleep Op = "sleep"
	// OpWake duty-cycles a node on: <when> wake <node>.
	OpWake Op = "wake"
)

// Action is one scripted step.
type Action struct {
	// At is the absolute virtual time the action fires.
	At time.Duration
	// Op selects the action.
	Op Op
	// Node is the target.
	Node radio.NodeID
	// X, Y is the destination (move, walk, join).
	X, Y float64
	// Speed is the walk speed in units per second (walk only).
	Speed float64
	// Line is the 1-based script line, for error messages.
	Line int
}

// Script is a parsed, validated mobility schedule.
type Script struct {
	Actions []Action
}

// ParseScript reads a mobility script: one action per line, `#` comments
// and blank lines ignored. Grammar (times are Go durations, coordinates
// finite floats, speeds positive):
//
//	<when> move  <node> <x> <y>
//	<when> walk  <node> <x> <y> <speed>
//	<when> join  <node> <x> <y>
//	<when> leave <node>
//	<when> sleep <node>
//	<when> wake  <node>
//
// Actions are stable-sorted by time, so same-instant actions keep script
// order — a partition-and-merge scenario reads top to bottom.
func ParseScript(r io.Reader) (Script, error) {
	var s Script
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = strings.TrimSpace(text[:i])
		}
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 3 {
			return Script{}, fmt.Errorf("mobility: script line %d: want \"<time> <action> <node> ...\", got %q", line, text)
		}
		at, err := time.ParseDuration(fields[0])
		if err != nil {
			return Script{}, fmt.Errorf("mobility: script line %d: bad time %q: %v", line, fields[0], err)
		}
		if at < 0 {
			return Script{}, fmt.Errorf("mobility: script line %d: negative time %q", line, fields[0])
		}
		a := Action{At: at, Op: Op(fields[1]), Line: line}
		a.Node, err = parseNode(fields[2])
		if err != nil {
			return Script{}, fmt.Errorf("mobility: script line %d: %v", line, err)
		}
		args := fields[3:]
		switch a.Op {
		case OpMove, OpJoin:
			if len(args) != 2 {
				return Script{}, fmt.Errorf("mobility: script line %d: %s wants <x> <y>, got %d args", line, a.Op, len(args))
			}
			if a.X, err = parseCoord(args[0]); err != nil {
				return Script{}, fmt.Errorf("mobility: script line %d: %v", line, err)
			}
			if a.Y, err = parseCoord(args[1]); err != nil {
				return Script{}, fmt.Errorf("mobility: script line %d: %v", line, err)
			}
		case OpWalk:
			if len(args) != 3 {
				return Script{}, fmt.Errorf("mobility: script line %d: walk wants <x> <y> <speed>, got %d args", line, len(args))
			}
			if a.X, err = parseCoord(args[0]); err != nil {
				return Script{}, fmt.Errorf("mobility: script line %d: %v", line, err)
			}
			if a.Y, err = parseCoord(args[1]); err != nil {
				return Script{}, fmt.Errorf("mobility: script line %d: %v", line, err)
			}
			a.Speed, err = strconv.ParseFloat(args[2], 64)
			if err != nil || !(a.Speed > 0) || math.IsInf(a.Speed, 0) {
				return Script{}, fmt.Errorf("mobility: script line %d: bad speed %q (want a positive finite number)", line, args[2])
			}
		case OpLeave, OpSleep, OpWake:
			if len(args) != 0 {
				return Script{}, fmt.Errorf("mobility: script line %d: %s wants only a node ID, got %d extra args", line, a.Op, len(args))
			}
		default:
			return Script{}, fmt.Errorf("mobility: script line %d: unknown action %q (want move, walk, join, leave, sleep or wake)", line, fields[1])
		}
		s.Actions = append(s.Actions, a)
	}
	if err := sc.Err(); err != nil {
		return Script{}, fmt.Errorf("mobility: reading script: %w", err)
	}
	sort.SliceStable(s.Actions, func(i, j int) bool { return s.Actions[i].At < s.Actions[j].At })
	return s, nil
}

// ParseScriptString is ParseScript over a string.
func ParseScriptString(text string) (Script, error) {
	return ParseScript(strings.NewReader(text))
}

// MaxNode returns the largest node ID the script references, or -1 for an
// empty script — used to validate a script against an experiment's
// population before running it.
func (s Script) MaxNode() radio.NodeID {
	max := radio.NodeID(-1)
	for _, a := range s.Actions {
		if a.Node > max {
			max = a.Node
		}
	}
	return max
}

func parseNode(s string) (radio.NodeID, error) {
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad node ID %q (want a non-negative integer)", s)
	}
	return radio.NodeID(n), nil
}

func parseCoord(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("bad coordinate %q (want a finite number)", s)
	}
	return v, nil
}

// Director applies a mobility script to one trial: positions on a unit
// disk, membership through a Churner. The churner is only required when
// the script uses membership ops.
type Director struct {
	eng     *sim.Engine
	disk    *radio.UnitDisk
	churner *Churner
	tick    time.Duration
	horizon time.Duration

	// walkers tracks in-progress scripted walks so a later action on the
	// same node preempts the current glide, like a fresh order to a robot.
	walkers map[radio.NodeID]*Walker
}

// NewDirector returns a director driving disk (and churner, which may be
// nil for pure-movement scripts) until the horizon. tick <= 0 selects
// DefaultTick.
func NewDirector(eng *sim.Engine, disk *radio.UnitDisk, churner *Churner, tick time.Duration, horizon time.Duration) *Director {
	if tick <= 0 {
		tick = DefaultTick
	}
	return &Director{
		eng:     eng,
		disk:    disk,
		churner: churner,
		tick:    tick,
		horizon: horizon,
		walkers: make(map[radio.NodeID]*Walker),
	}
}

// Apply validates the script against this director's capabilities and
// schedules every action at its absolute virtual time. Call it before
// running the engine.
func (d *Director) Apply(s Script) error {
	for _, a := range s.Actions {
		switch a.Op {
		case OpJoin, OpLeave, OpSleep, OpWake:
			if d.churner == nil {
				return fmt.Errorf("mobility: script line %d: %s needs a churner", a.Line, a.Op)
			}
			if _, ok := d.churner.nodes[a.Node]; !ok {
				return fmt.Errorf("mobility: script line %d: node %d not registered with the churner", a.Line, a.Node)
			}
		}
	}
	for _, a := range s.Actions {
		a := a
		d.eng.ScheduleAt(a.At, func() { d.run(a) })
	}
	return nil
}

// run executes one action at its scheduled instant.
func (d *Director) run(a Action) {
	// Any new order for a node cancels its in-progress scripted walk.
	if w, ok := d.walkers[a.Node]; ok {
		w.Stop()
		delete(d.walkers, a.Node)
	}
	switch a.Op {
	case OpMove:
		d.disk.Place(a.Node, radio.Point{X: a.X, Y: a.Y})
	case OpWalk:
		dst := radio.Point{X: a.X, Y: a.Y}
		from, ok := d.disk.Position(a.Node)
		if !ok {
			// Walking an unplaced node is a placement at the destination.
			d.disk.Place(a.Node, dst)
			return
		}
		w := newWalker(d.eng, d.tick, d.horizon, from, func(p radio.Point) { d.disk.Place(a.Node, p) })
		d.walkers[a.Node] = w
		w.glide(dst, a.Speed, func() { delete(d.walkers, a.Node) })
	case OpJoin:
		_ = d.churner.Join(a.Node, radio.Point{X: a.X, Y: a.Y})
	case OpLeave:
		_ = d.churner.Leave(a.Node)
	case OpSleep:
		_ = d.churner.Sleep(a.Node)
	case OpWake:
		_ = d.churner.Wake(a.Node)
	}
}
