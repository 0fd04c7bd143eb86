// Package workload generates application traffic for experiments.
//
// Three shapes cover the paper's scenarios:
//
//   - Continuous: "a continuous stream of random 80-byte packets"
//     (Section 5.1's transmitters) — the sender keeps its radio queue
//     topped up so the channel sees maximal sustained contention.
//   - Periodic: the sensor-network steady state the paper motivates —
//     "periodic messages consisting of only a few bits to describe the
//     current state" (Section 2.3).
//   - Poisson: memoryless arrivals, for ablations over non-uniform
//     transaction spacing.
package workload

import (
	"math/rand/v2"
	"time"

	"retri/internal/radio"
	"retri/internal/sim"
)

// Driver is the slice of the node stack a generator needs.
type Driver interface {
	SendPacket(p []byte) error
	Radio() *radio.Radio
}

// Stats reports what a generator produced.
type Stats struct {
	// PacketsOffered counts SendPacket calls that succeeded.
	PacketsOffered int64
	// SendErrors counts SendPacket calls that failed (radio down etc.).
	SendErrors int64
}

// payloadFiller writes a fresh random payload.
func fillRandom(p []byte, rng *rand.Rand) {
	for i := range p {
		p[i] = byte(rng.Uint64())
	}
}

// Continuous keeps a driver's transmit queue topped up with random
// packets until a deadline.
type Continuous struct {
	eng   *sim.Engine
	d     Driver
	rng   *rand.Rand
	sizes []int
	poll  time.Duration

	until   time.Duration
	stopped bool
	stats   Stats
	// next is the pending tick; tickFn is tick bound once, so the poll loop
	// schedules without allocating.
	next   sim.Timer
	tickFn func()
}

// NewContinuous returns a continuous streamer of size-byte packets.
// poll is the queue check interval; non-positive selects one frame airtime
// at the paper's radio rate (~6 ms).
func NewContinuous(eng *sim.Engine, d Driver, size int, poll time.Duration, rng *rand.Rand) *Continuous {
	return NewContinuousMixed(eng, d, []int{size}, poll, rng)
}

// NewContinuousMixed is NewContinuous with each packet's size drawn
// uniformly from sizes — the non-uniform-transaction-length ablation the
// paper's Section 8 flags as future work.
func NewContinuousMixed(eng *sim.Engine, d Driver, sizes []int, poll time.Duration, rng *rand.Rand) *Continuous {
	if poll <= 0 {
		poll = 6 * time.Millisecond
	}
	if len(sizes) == 0 {
		sizes = []int{80}
	}
	c := &Continuous{eng: eng, d: d, rng: rng, sizes: sizes, poll: poll}
	c.tickFn = c.tick
	return c
}

// lowWater is the queue depth below which the streamer refills: deep enough
// that the radio never idles, shallow enough that queued traffic tracks the
// virtual clock.
const lowWater = 2

// Start begins streaming until the given absolute virtual time. A restart
// while the previous run's tick is still pending resumes that tick rather
// than starting a second one.
func (c *Continuous) Start(until time.Duration) {
	c.until = until
	c.stopped = false
	if c.next.Stopped() {
		c.tick()
	}
}

// Stop halts the stream at the next tick.
func (c *Continuous) Stop() { c.stopped = true }

// Stats returns the generator's counters.
func (c *Continuous) Stats() Stats { return c.stats }

func (c *Continuous) tick() {
	if c.stopped || c.eng.Now() >= c.until {
		return
	}
	if c.d.Radio().QueueLen() < lowWater {
		size := c.sizes[0]
		if len(c.sizes) > 1 {
			size = c.sizes[c.rng.IntN(len(c.sizes))]
		}
		p := make([]byte, size)
		fillRandom(p, c.rng)
		if err := c.d.SendPacket(p); err != nil {
			c.stats.SendErrors++
		} else {
			c.stats.PacketsOffered++
		}
	}
	c.next = c.eng.Schedule(c.poll, c.tickFn)
}

// Periodic sends one fixed-size random packet every interval, with optional
// uniform jitter in [0, jitter).
type Periodic struct {
	eng      *sim.Engine
	d        Driver
	rng      *rand.Rand
	size     int
	interval time.Duration
	jitter   time.Duration

	until   time.Duration
	stopped bool
	stats   Stats
	// next is the pending emission; emitFn is emit bound once.
	next   sim.Timer
	emitFn func()
}

// NewPeriodic returns a periodic sender.
func NewPeriodic(eng *sim.Engine, d Driver, size int, interval, jitter time.Duration, rng *rand.Rand) *Periodic {
	if interval <= 0 {
		interval = time.Second
	}
	p := &Periodic{eng: eng, d: d, rng: rng, size: size, interval: interval, jitter: jitter}
	p.emitFn = p.emit
	return p
}

// Start begins sending until the given absolute virtual time. A restart
// while the previous run's emission is still pending keeps that emission
// rather than scheduling a second one.
func (p *Periodic) Start(until time.Duration) {
	p.until = until
	p.stopped = false
	if p.next.Stopped() {
		p.schedule()
	}
}

// Stop halts the sender before its next emission.
func (p *Periodic) Stop() { p.stopped = true }

// Stats returns the generator's counters.
func (p *Periodic) Stats() Stats { return p.stats }

func (p *Periodic) schedule() {
	d := p.interval
	if p.jitter > 0 {
		d += time.Duration(p.rng.Int64N(int64(p.jitter)))
	}
	p.next = p.eng.Schedule(d, p.emitFn)
}

func (p *Periodic) emit() {
	if p.stopped || p.eng.Now() >= p.until {
		return
	}
	pkt := make([]byte, p.size)
	fillRandom(pkt, p.rng)
	if err := p.d.SendPacket(pkt); err != nil {
		p.stats.SendErrors++
	} else {
		p.stats.PacketsOffered++
	}
	p.schedule()
}

// Poisson sends fixed-size random packets with exponential inter-arrival
// times of the given mean.
type Poisson struct {
	eng  *sim.Engine
	d    Driver
	rng  *rand.Rand
	size int
	mean time.Duration

	until   time.Duration
	stopped bool
	stats   Stats
	// next is the pending emission; emitFn is emit bound once.
	next   sim.Timer
	emitFn func()
}

// NewPoisson returns a Poisson-arrival sender with the given mean
// inter-arrival time.
func NewPoisson(eng *sim.Engine, d Driver, size int, mean time.Duration, rng *rand.Rand) *Poisson {
	if mean <= 0 {
		mean = time.Second
	}
	p := &Poisson{eng: eng, d: d, rng: rng, size: size, mean: mean}
	p.emitFn = p.emit
	return p
}

// Start begins sending until the given absolute virtual time. A restart
// while the previous run's emission is still pending keeps that emission
// rather than scheduling a second one.
func (p *Poisson) Start(until time.Duration) {
	p.until = until
	p.stopped = false
	if p.next.Stopped() {
		p.schedule()
	}
}

// Stop halts the sender before its next emission.
func (p *Poisson) Stop() { p.stopped = true }

// Stats returns the generator's counters.
func (p *Poisson) Stats() Stats { return p.stats }

func (p *Poisson) schedule() {
	gap := time.Duration(p.rng.ExpFloat64() * float64(p.mean))
	p.next = p.eng.Schedule(gap, p.emitFn)
}

func (p *Poisson) emit() {
	if p.stopped || p.eng.Now() >= p.until {
		return
	}
	pkt := make([]byte, p.size)
	fillRandom(pkt, p.rng)
	if err := p.d.SendPacket(pkt); err != nil {
		p.stats.SendErrors++
	} else {
		p.stats.PacketsOffered++
	}
	p.schedule()
}
