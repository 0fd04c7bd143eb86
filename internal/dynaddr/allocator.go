package dynaddr

import (
	"math/rand/v2"
	"time"

	"retri/internal/radio"
	"retri/internal/sim"
)

// State is an allocator's lifecycle position.
type State int

// Allocation states.
const (
	// Unassigned means no address and no claim in progress.
	Unassigned State = iota + 1
	// Claiming means a candidate is being advertised and defended
	// against.
	Claiming
	// Assigned means the node owns a locally unique address.
	Assigned
)

// String names the state.
func (s State) String() string {
	switch s {
	case Unassigned:
		return "unassigned"
	case Claiming:
		return "claiming"
	case Assigned:
		return "assigned"
	default:
		return "invalid"
	}
}

// Config parameterizes the allocation protocol.
type Config struct {
	// AddrBits is the local address width (the whole point is that this
	// is small).
	AddrBits int
	// ClaimCount is how many CLAIMs are sent before taking an address.
	ClaimCount int
	// ClaimInterval spaces successive CLAIMs; the node listens for
	// objections in between.
	ClaimInterval time.Duration
	// AnnounceInterval spaces keepalive ANNOUNCEs once assigned; zero
	// disables them.
	AnnounceInterval time.Duration
	// Horizon, when positive, stops the keepalive chain from scheduling
	// past it, so a bounded experiment's event queue drains — the same
	// freeze-at-horizon idiom mobility timers follow. Zero keeps
	// keepalives running forever.
	Horizon time.Duration
	// HeardTTL is how long a heard address is considered in use.
	HeardTTL time.Duration
}

func (c Config) withDefaults() Config {
	if c.AddrBits == 0 {
		c.AddrBits = 10
	}
	if c.ClaimCount == 0 {
		c.ClaimCount = 3
	}
	if c.ClaimInterval == 0 {
		c.ClaimInterval = 200 * time.Millisecond
	}
	if c.HeardTTL == 0 {
		c.HeardTTL = 30 * time.Second
	}
	return c
}

// Stats counts the protocol's work — the overhead AFF avoids.
type Stats struct {
	ClaimsSent    int64
	DefendsSent   int64
	AnnouncesSent int64
	// ControlBits totals meaningful bits of control traffic transmitted.
	ControlBits int64
	// Conflicts counts claims abandoned after an objection or a
	// competing claim.
	Conflicts int64
	// Acquisitions counts addresses successfully taken.
	Acquisitions int64
}

// Add folds o into s field by field, for aggregating nodes and trials.
func (s *Stats) Add(o Stats) {
	s.ClaimsSent += o.ClaimsSent
	s.DefendsSent += o.DefendsSent
	s.AnnouncesSent += o.AnnouncesSent
	s.ControlBits += o.ControlBits
	s.Conflicts += o.Conflicts
	s.Acquisitions += o.Acquisitions
}

// Allocator runs claim-listen-defend on one radio. It does not own the
// radio's handler; the owning node must route control frames to
// HandleControl.
type Allocator struct {
	eng   *sim.Engine
	r     *radio.Radio
	rng   *rand.Rand
	cfg   Config
	codec codec

	state      State
	addr       uint64
	nonce      uint16
	claimsLeft int
	claimTimer sim.Timer
	// announceGen invalidates keepalive chains across re-acquisitions: a
	// stale chain from an earlier assignment must not double the
	// announce rate of the current one.
	announceGen int
	// send transmits one encoded control frame; defaults to the radio,
	// replaceable so a multi-hop relay can envelope control traffic.
	send func(payload []byte, bits int) error

	// heard maps addresses believed in use to their last-heard time.
	heard map[uint64]time.Duration

	stats      Stats
	onAssigned func(addr uint64)
}

// NewAllocator builds an allocator on r. onAssigned, if non-nil, fires
// each time an address is acquired.
func NewAllocator(eng *sim.Engine, r *radio.Radio, cfg Config, rng *rand.Rand, onAssigned func(addr uint64)) *Allocator {
	cfg = cfg.withDefaults()
	a := &Allocator{
		eng:        eng,
		r:          r,
		rng:        rng,
		cfg:        cfg,
		codec:      codec{addrBits: cfg.AddrBits},
		state:      Unassigned,
		heard:      make(map[uint64]time.Duration),
		onAssigned: onAssigned,
	}
	a.send = r.Send
	return a
}

// SetSend replaces the control-frame transmit path (e.g. to envelope
// control traffic through a multi-hop relay). Nil restores the radio.
func (a *Allocator) SetSend(fn func(payload []byte, bits int) error) {
	if fn == nil {
		fn = a.r.Send
	}
	a.send = fn
}

// State reports the allocator's lifecycle position.
func (a *Allocator) State() State { return a.state }

// Addr returns the owned address; ok is false unless Assigned.
func (a *Allocator) Addr() (addr uint64, ok bool) {
	return a.addr, a.state == Assigned
}

// Stats returns a snapshot of protocol counters.
func (a *Allocator) Stats() Stats { return a.stats }

// Start begins claiming an address. It is a no-op when already claiming or
// assigned.
func (a *Allocator) Start() {
	if a.state != Unassigned {
		return
	}
	a.beginClaim()
}

// Release abandons the current address or claim (e.g. before the node
// powers down), returning the allocator to Unassigned.
func (a *Allocator) Release() {
	a.claimTimer.Cancel()
	a.announceGen++
	a.state = Unassigned
}

// Reset is Release plus amnesia: the heard-address table — RAM state — is
// wiped, modelling a crash rather than a graceful power-down. The node
// must relearn which addresses are taken, which is exactly what makes
// churned re-allocation expensive.
func (a *Allocator) Reset() {
	a.Release()
	a.heard = make(map[uint64]time.Duration)
}

// beginClaim draws a candidate not recently heard and starts advertising.
func (a *Allocator) beginClaim() {
	a.state = Claiming
	a.addr = a.pickCandidate()
	a.nonce = uint16(a.rng.Uint64())
	a.claimsLeft = a.cfg.ClaimCount
	a.sendClaim()
}

// pickCandidate draws uniformly from addresses not believed in use,
// falling back to a uniform draw when everything has been heard.
func (a *Allocator) pickCandidate() uint64 {
	size := uint64(1) << uint(a.cfg.AddrBits)
	a.expireHeard()
	if uint64(len(a.heard)) >= size {
		return a.rng.Uint64N(size)
	}
	for i := 0; i < 256; i++ {
		addr := a.rng.Uint64N(size)
		if _, inUse := a.heard[addr]; !inUse {
			return addr
		}
	}
	return a.rng.Uint64N(size)
}

func (a *Allocator) expireHeard() {
	cutoff := a.eng.Now() - a.cfg.HeardTTL
	for addr, at := range a.heard {
		if at < cutoff {
			delete(a.heard, addr)
		}
	}
}

// sendClaim broadcasts one CLAIM and schedules the next step.
func (a *Allocator) sendClaim() {
	if a.state != Claiming {
		return
	}
	if a.claimsLeft == 0 {
		// Unopposed through the whole claim phase: take the address.
		a.state = Assigned
		a.stats.Acquisitions++
		if a.cfg.AnnounceInterval > 0 {
			a.scheduleAnnounce()
		}
		if a.onAssigned != nil {
			a.onAssigned(a.addr)
		}
		return
	}
	a.claimsLeft--
	a.transmit(Control{Kind: MsgClaim, Addr: a.addr, Nonce: a.nonce})
	a.stats.ClaimsSent++
	a.claimTimer = a.eng.Schedule(a.cfg.ClaimInterval, a.sendClaim)
}

func (a *Allocator) scheduleAnnounce() {
	if a.cfg.Horizon > 0 && a.eng.Now()+a.cfg.AnnounceInterval >= a.cfg.Horizon {
		return
	}
	gen := a.announceGen
	a.eng.Schedule(a.cfg.AnnounceInterval, func() {
		if a.state != Assigned || a.announceGen != gen {
			return
		}
		a.transmit(Control{Kind: MsgAnnounce, Addr: a.addr, Nonce: a.nonce})
		a.stats.AnnouncesSent++
		a.scheduleAnnounce()
	})
}

// transmit encodes and queues a control frame.
func (a *Allocator) transmit(m Control) {
	payload, bits, err := a.codec.encodeControl(m)
	if err != nil {
		return
	}
	if err := a.send(payload, bits); err != nil {
		return
	}
	a.stats.ControlBits += int64(bits)
}

// HandleControl processes a received control message.
func (a *Allocator) HandleControl(m Control) {
	switch m.Kind {
	case MsgClaim:
		a.heard[m.Addr] = a.eng.Now()
		switch {
		case a.state == Assigned && m.Addr == a.addr:
			// Defend the owned address.
			a.transmit(Control{Kind: MsgDefend, Addr: a.addr, Nonce: a.nonce})
			a.stats.DefendsSent++
		case a.state == Claiming && m.Addr == a.addr && m.Nonce != a.nonce:
			// A competing claim for the same candidate: both back off
			// and re-draw (resolution by re-randomization).
			a.abortClaim()
		}
	case MsgDefend:
		a.heard[m.Addr] = a.eng.Now()
		if a.state == Claiming && m.Addr == a.addr {
			a.abortClaim()
		}
	case MsgAnnounce:
		a.heard[m.Addr] = a.eng.Now()
		if a.state == Claiming && m.Addr == a.addr {
			a.abortClaim()
		}
	}
}

// abortClaim abandons the current candidate and re-draws after a random
// backoff.
func (a *Allocator) abortClaim() {
	a.stats.Conflicts++
	a.claimTimer.Cancel()
	a.state = Unassigned
	backoff := time.Duration(a.rng.Int64N(int64(a.cfg.ClaimInterval))) + a.cfg.ClaimInterval/2
	a.eng.Schedule(backoff, func() {
		if a.state == Unassigned {
			a.beginClaim()
		}
	})
}
