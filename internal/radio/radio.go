package radio

import (
	"fmt"
	"time"

	"retri/internal/energy"
)

// Radio is one node's attachment to the medium. All methods must be called
// from the simulation goroutine.
type Radio struct {
	id NodeID
	m  *Medium

	handler func(Frame)

	queue          []Frame
	inFlight       bool
	attemptPending bool
	// attemptFn is attempt as a method value, bound once in Attach so a
	// contention attempt schedules without allocating.
	attemptFn func()

	up          bool
	listening   bool
	listenSince time.Duration

	// txWindows records recent transmission intervals for half-duplex
	// reception checks.
	txWindows []txWindow

	meter energy.Meter
}

type txWindow struct {
	start, end time.Duration
}

// ID returns the radio's node ID.
func (r *Radio) ID() NodeID { return r.id }

// Now returns the medium's virtual time; protocol layers use it as their
// clock.
func (r *Radio) Now() time.Duration { return r.m.eng.Now() }

// MTU returns the largest frame payload, in bytes, the medium accepts on
// Send; fragmenters size their frames by it.
func (r *Radio) MTU() int { return r.m.p.MTU }

// SetHandler installs the receive callback. The callback runs inside the
// simulation event that completes the frame; it may call Send.
func (r *Radio) SetHandler(h func(Frame)) { r.handler = h }

// Send queues a frame for transmission. bits is the number of meaningful
// payload bits (0 means 8*len(payload)). Send returns an error if the
// payload exceeds the MTU or the radio is down; queued frames are
// transmitted in order under the medium's MAC discipline.
func (r *Radio) Send(payload []byte, bits int) error {
	if !r.up {
		return fmt.Errorf("%w: node %d", ErrRadioDown, r.id)
	}
	if len(payload) > r.m.p.MTU {
		return fmt.Errorf("%w: %d > %d bytes", ErrFrameTooLarge, len(payload), r.m.p.MTU)
	}
	if bits <= 0 || bits > 8*len(payload) {
		bits = 8 * len(payload)
	}
	r.queue = append(r.queue, Frame{From: r.id, Payload: payload, Bits: bits})
	r.pump()
	return nil
}

// QueueLen reports the number of frames waiting to transmit (not counting
// one in flight).
func (r *Radio) QueueLen() int { return len(r.queue) }

// Idle reports whether the radio has nothing queued or in flight.
func (r *Radio) Idle() bool { return len(r.queue) == 0 && !r.inFlight }

// Up reports whether the radio is powered.
func (r *Radio) Up() bool { return r.up }

// SetUp powers the radio on or off. Powering off drops the transmit queue
// (the node is gone, per the paper's node-dynamics assumption) and stops
// listening-energy accrual; powering on resumes listening if it was
// enabled.
func (r *Radio) SetUp(up bool) {
	if up == r.up {
		return
	}
	if !up {
		r.flushListen()
		r.queue = nil
	} else if r.listening {
		r.listenSince = r.m.eng.Now()
	}
	r.up = up
	if up {
		r.pump()
	}
}

// Listening reports whether the receiver is enabled.
func (r *Radio) Listening() bool { return r.listening }

// SetListening enables or disables reception. The paper notes some nodes
// "minimize the time they spend listening because of the significant power
// requirements of running a radio" (Section 3.2); disabling reception stops
// both frame delivery and listen-energy accrual.
func (r *Radio) SetListening(on bool) {
	if on == r.listening {
		return
	}
	if on {
		if r.up {
			r.listenSince = r.m.eng.Now()
		}
	} else {
		r.flushListen()
	}
	r.listening = on
}

// Meter returns a snapshot of the radio's energy accounting, including
// listening time accrued up to the present instant.
func (r *Radio) Meter() energy.Meter {
	m := r.meter
	if r.up && r.listening {
		m.AddListen(r.m.eng.Now() - r.listenSince)
	}
	return m
}

// flushListen folds the open listening interval into the meter.
func (r *Radio) flushListen() {
	if r.up && r.listening {
		r.meter.AddListen(r.m.eng.Now() - r.listenSince)
	}
	r.listenSince = r.m.eng.Now()
}

// pump moves the queue forward. Under ALOHA the head frame transmits
// immediately. Under CSMA every attempt — a fresh frame, a sender's next
// frame, or a waiter woken by a completed transmission — first waits a
// uniform draw from the contention window, then senses the carrier:
// transmit if idle, rejoin the waiters if busy. All contenders follow the
// same rule, so nodes interleave frame by frame instead of one sender
// monopolizing the channel.
func (r *Radio) pump() {
	if !r.up || r.inFlight || len(r.queue) == 0 {
		return
	}
	if r.m.p.Access == ALOHA {
		r.transmitHead()
		return
	}
	if r.attemptPending {
		return
	}
	r.attemptPending = true
	d := time.Duration(r.m.rng.Int64N(int64(r.m.p.Contention)))
	r.m.eng.Schedule(d, r.attemptFn)
}

// attempt is the post-contention-delay carrier sense.
func (r *Radio) attempt() {
	r.attemptPending = false
	if !r.up || r.inFlight || len(r.queue) == 0 {
		return
	}
	if r.m.busyAt(r.id) {
		r.m.ctr.Backoffs++
		r.m.addWaiter(r)
		return
	}
	r.transmitHead()
}

// transmitHead puts the head-of-queue frame on the air. It pops in
// place, so Send's append keeps reusing one backing array, and clears the
// vacated slot so a sent payload is not kept reachable from it.
func (r *Radio) transmitHead() {
	f := r.queue[0]
	n := copy(r.queue, r.queue[1:])
	r.queue[n] = Frame{}
	r.queue = r.queue[:n]
	r.inFlight = true
	r.m.begin(r, f)
}

// noteTx records a transmission interval for half-duplex checks.
func (r *Radio) noteTx(start, end time.Duration) {
	// Prune windows that ended long before any frame still on air began.
	kept := r.txWindows[:0]
	for _, w := range r.txWindows {
		if w.end > start-time.Second {
			kept = append(kept, w)
		}
	}
	r.txWindows = append(kept, txWindow{start: start, end: end})
}

// txOverlaps reports whether this radio transmitted during [start, end).
func (r *Radio) txOverlaps(start, end time.Duration) bool {
	for _, w := range r.txWindows {
		if w.start < end && w.end > start {
			return true
		}
	}
	return false
}
