package mobility

import (
	"fmt"
	"math/rand/v2"
	"time"

	"retri/internal/faults"
	"retri/internal/radio"
	"retri/internal/sim"
	"retri/internal/trace"
)

// ChurnCounters tallies membership events.
type ChurnCounters struct {
	Joins  int64
	Leaves int64
	Sleeps int64
	Wakes  int64
}

// Add folds o into c field by field, for aggregating trials.
func (c *ChurnCounters) Add(o ChurnCounters) {
	c.Joins += o.Joins
	c.Leaves += o.Leaves
	c.Sleeps += o.Sleeps
	c.Wakes += o.Wakes
}

// Churner schedules node membership dynamics: permanent join/leave and
// duty-cycled sleep/wake. Both reuse the crash/restart semantics from
// internal/faults — a sleeping or departed node's radio goes down and its
// RAM protocol state (partial reassemblies, listening window, density
// estimate, adaptive width) is wiped, so a returning node relearns the
// channel from nothing. That is the paper's dynamics story: RETRI needs no
// state handover because identifiers are ephemeral.
//
// Like the fault injector it mirrors, a Churner is single-goroutine: one
// per trial.
type Churner struct {
	eng     *sim.Engine
	horizon time.Duration
	nodes   map[radio.NodeID]faults.NodeControl
	// disk, when set, also erases a departed node's position (freeing
	// topology state, satellite Remove) and places a joining one.
	disk   *radio.UnitDisk
	awake  map[radio.NodeID]bool
	tracer trace.Tracer
	ctr    ChurnCounters
}

// NewChurner returns a churner on eng whose duty-cycles stop starting new
// downtime at the horizon.
func NewChurner(eng *sim.Engine, horizon time.Duration) *Churner {
	return &Churner{
		eng:     eng,
		horizon: horizon,
		nodes:   make(map[radio.NodeID]faults.NodeControl),
		awake:   make(map[radio.NodeID]bool),
	}
}

// SetDisk installs the unit-disk topology whose positions join/leave
// maintain; nil leaves positions to the caller.
func (c *Churner) SetDisk(d *radio.UnitDisk) { c.disk = d }

// SetTracer installs a tracer for churn events (recorded as the crash/
// restart kinds they reuse); nil disables.
func (c *Churner) SetTracer(t trace.Tracer) { c.tracer = t }

// Register attaches a node's control interface. Nodes start awake.
func (c *Churner) Register(id radio.NodeID, n faults.NodeControl) {
	c.nodes[id] = n
	c.awake[id] = true
}

// Counters returns a snapshot of the membership tallies.
func (c *Churner) Counters() ChurnCounters { return c.ctr }

// Awake reports whether the node is currently up (registered, not asleep,
// not departed). The experiment layer's omniscient density probe counts
// only awake neighbors.
func (c *Churner) Awake(id radio.NodeID) bool { return c.awake[id] }

func (c *Churner) emit(kind trace.Kind, id radio.NodeID) {
	if c.tracer != nil {
		c.tracer.Record(trace.Event{At: c.eng.Now(), Kind: kind, Node: int(id), Peer: int(id)})
	}
}

func (c *Churner) control(id radio.NodeID) (faults.NodeControl, error) {
	n, ok := c.nodes[id]
	if !ok {
		return nil, fmt.Errorf("mobility: churn on unregistered node %d", id)
	}
	return n, nil
}

// Sleep takes a node down (duty-cycle off-phase): radio down, RAM wiped.
func (c *Churner) Sleep(id radio.NodeID) error {
	n, err := c.control(id)
	if err != nil {
		return err
	}
	n.Crash()
	c.awake[id] = false
	c.ctr.Sleeps++
	c.emit(trace.NodeCrash, id)
	return nil
}

// Wake brings a sleeping node back with empty state.
func (c *Churner) Wake(id radio.NodeID) error {
	n, err := c.control(id)
	if err != nil {
		return err
	}
	n.Restart()
	c.awake[id] = true
	c.ctr.Wakes++
	c.emit(trace.NodeRestart, id)
	return nil
}

// Leave removes a node from the network: radio down, state wiped, and its
// position erased so the topology frees its spatial-index slot.
func (c *Churner) Leave(id radio.NodeID) error {
	n, err := c.control(id)
	if err != nil {
		return err
	}
	n.Crash()
	if c.disk != nil {
		c.disk.Remove(id)
	}
	c.awake[id] = false
	c.ctr.Leaves++
	c.emit(trace.NodeCrash, id)
	return nil
}

// Join (re-)admits a node at position p with empty state.
func (c *Churner) Join(id radio.NodeID, p radio.Point) error {
	n, err := c.control(id)
	if err != nil {
		return err
	}
	if c.disk != nil {
		c.disk.Place(id, p)
	}
	n.Restart()
	c.awake[id] = true
	c.ctr.Joins++
	c.emit(trace.NodeRestart, id)
	return nil
}

// DutyCycle is a stochastic sleep/wake schedule: exponential up-times with
// mean MeanUp, exponential sleeps with mean MeanDown — the standard model
// for duty-cycled sensor radios.
type DutyCycle struct {
	MeanUp, MeanDown time.Duration
}

// Validate rejects non-positive means.
func (p DutyCycle) Validate() error {
	if p.MeanUp <= 0 || p.MeanDown <= 0 {
		return fmt.Errorf("mobility: duty cycle needs positive up/down means, got %v/%v", p.MeanUp, p.MeanDown)
	}
	return nil
}

// AwakeFraction is the cycle's stationary probability of being awake,
// MeanUp/(MeanUp+MeanDown) — the factor that converts a spatial node
// density into the awake density the paper's T rides on. Zero for a
// degenerate (unvalidated) cycle.
func (p DutyCycle) AwakeFraction() float64 {
	total := p.MeanUp + p.MeanDown
	if total <= 0 {
		return 0
	}
	return float64(p.MeanUp) / float64(total)
}

// StartDutyCycle runs the cycle for a registered node until the horizon,
// drawing from rng. No new sleep begins at or after the horizon, and an
// in-progress sleep always ends with a wake, so a bounded run finishes
// with every duty-cycled node awake.
func (c *Churner) StartDutyCycle(id radio.NodeID, p DutyCycle, rng *rand.Rand) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if _, ok := c.nodes[id]; !ok {
		return fmt.Errorf("mobility: duty cycle for unregistered node %d", id)
	}
	var up func()
	up = func() {
		life := expDuration(rng, p.MeanUp)
		if c.eng.Now()+life >= c.horizon {
			return
		}
		c.eng.Schedule(life, func() {
			_ = c.Sleep(id)
			down := expDuration(rng, p.MeanDown)
			c.eng.Schedule(down, func() {
				_ = c.Wake(id)
				up()
			})
		})
	}
	up()
	return nil
}

// expDuration draws an exponential duration with the given mean, clamped
// to at least one nanosecond so schedules always advance.
func expDuration(rng *rand.Rand, mean time.Duration) time.Duration {
	d := time.Duration(rng.ExpFloat64() * float64(mean))
	if d < 1 {
		d = 1
	}
	return d
}
