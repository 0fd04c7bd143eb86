// Package sim implements a deterministic, single-threaded discrete-event
// simulation engine.
//
// The engine replaces the paper's physical testbed clock: radios, MAC
// backoffs, reassembly timeouts and workload generators all schedule
// callbacks on one virtual timeline. Events at equal timestamps fire in
// scheduling order, so a run is a pure function of its inputs and random
// seeds. The engine is not safe for concurrent use; the whole simulation is
// intentionally one goroutine (see DESIGN.md, "Determinism").
//
// Scheduling and firing allocate nothing in steady state: the heap holds
// small values that point into a slab of callback slots, slots are
// recycled through a free list, and a Timer is a generation-checked value
// handle on its slot rather than a pointer to a heap-allocated event.
package sim

import "time"

// Engine is a discrete-event scheduler with a virtual clock.
//
// The zero value is not usable; call NewEngine.
type Engine struct {
	now time.Duration
	// heap is a binary min-heap ordered by (at, seq); each entry names the
	// slot holding its callback.
	heap []entry
	// slots is the callback slab; free lists the indices of released slots.
	slots []slot
	free  []int32
	seq   uint64
	nRun  uint64
	// nCancelled counts cancelled events still occupying heap slots, so
	// Pending is O(1) and Cancel knows when compaction pays off.
	nCancelled int
	// Event-loop accounting for Stats: total cancellations, lazy-deletion
	// compactions, and the heap's high-water mark. Each costs at most one
	// increment or compare per operation, so the accounting is always on
	// and cannot perturb scheduling.
	nCancelledTotal uint64
	nCompactions    uint64
	heapHighWater   int
}

// entry is one scheduled event in the heap: its firing time, its
// scheduling sequence number (the tie-break that makes simultaneous events
// fire in scheduling order), and the slab slot holding its callback.
type entry struct {
	at   time.Duration
	seq  uint64
	slot int32
}

// slot holds one scheduled event's callback. gen advances every time the
// slot is released, so a Timer naming an older generation is inert.
type slot struct {
	fn        func()
	gen       uint64
	cancelled bool
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Pending reports the number of scheduled, uncancelled events.
func (e *Engine) Pending() int {
	return len(e.heap) - e.nCancelled
}

// Processed reports the total number of events executed so far.
func (e *Engine) Processed() uint64 { return e.nRun }

// Stats is a snapshot of the engine's event-loop accounting, for the
// observability layer. All fields are totals since NewEngine except
// HeapHighWater (the largest heap the run ever held, cancelled slots
// included) and Pending (live events right now).
type Stats struct {
	// Processed counts events executed.
	Processed uint64
	// Scheduled counts events ever scheduled.
	Scheduled uint64
	// Cancelled counts timers cancelled before firing.
	Cancelled uint64
	// Compactions counts cancelled-timer heap rebuilds (maybeCompact).
	Compactions uint64
	// HeapHighWater is the maximum heap length observed.
	HeapHighWater int
	// Pending is the current count of scheduled, uncancelled events.
	Pending int
}

// Stats returns the engine's event-loop accounting.
func (e *Engine) Stats() Stats {
	return Stats{
		Processed:     e.nRun,
		Scheduled:     e.seq,
		Cancelled:     e.nCancelledTotal,
		Compactions:   e.nCompactions,
		HeapHighWater: e.heapHighWater,
		Pending:       e.Pending(),
	}
}

// Timer is a value handle to a scheduled event. The zero Timer is stopped.
//
// A handle names its event's slot and the slot's generation at scheduling
// time. Firing or discarding the event releases the slot, which advances
// its generation, so a handle whose slot has since been reused for another
// event is inert: it reports Stopped and its Cancel does nothing.
type Timer struct {
	eng  *Engine
	slot int32
	gen  uint64
}

// live returns the timer's slot while its event is still pending.
func (t Timer) live() *slot {
	if t.eng == nil {
		return nil
	}
	s := &t.eng.slots[t.slot]
	if s.gen != t.gen || s.cancelled {
		return nil
	}
	return s
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled timer is a no-op. Cancel reports whether the event was
// still pending.
func (t Timer) Cancel() bool {
	s := t.live()
	if s == nil {
		return false
	}
	s.cancelled = true
	s.fn = nil
	t.eng.nCancelled++
	t.eng.nCancelledTotal++
	t.eng.maybeCompact()
	return true
}

// Stopped reports whether the timer has fired or been cancelled.
func (t Timer) Stopped() bool { return t.live() == nil }

// Schedule runs fn after delay d of virtual time. A non-positive delay
// schedules fn at the current time, after all events already scheduled for
// that instant. The returned Timer may be used to cancel.
func (e *Engine) Schedule(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.ScheduleAt(e.now+d, fn)
}

// ScheduleAt runs fn at absolute virtual time t. Times in the past are
// clamped to the present.
func (e *Engine) ScheduleAt(t time.Duration, fn func()) Timer {
	if t < e.now {
		t = e.now
	}
	var i int32
	if n := len(e.free); n > 0 {
		i = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		i = int32(len(e.slots))
		e.slots = append(e.slots, slot{})
	}
	s := &e.slots[i]
	s.fn = fn
	e.heap = append(e.heap, entry{at: t, seq: e.seq, slot: i})
	e.siftUp(len(e.heap) - 1)
	e.seq++
	if len(e.heap) > e.heapHighWater {
		e.heapHighWater = len(e.heap)
	}
	return Timer{eng: e, slot: i, gen: s.gen}
}

// release returns slot i to the free list, invalidating every handle on it.
func (e *Engine) release(i int32) {
	s := &e.slots[i]
	s.fn = nil
	s.gen++
	s.cancelled = false
	e.free = append(e.free, i)
}

// compactThreshold is the smallest heap worth compacting; below it the
// lazy-deletion slots cost less than the rebuild.
const compactThreshold = 64

// maybeCompact rebuilds the heap without cancelled events once they occupy
// more than half of it, bounding heap growth under cancel/reschedule churn
// (MAC backoffs, reassembly timeouts) at ~2x the live event count.
func (e *Engine) maybeCompact() {
	if len(e.heap) < compactThreshold || e.nCancelled*2 <= len(e.heap) {
		return
	}
	kept := e.heap[:0]
	for _, en := range e.heap {
		if e.slots[en.slot].cancelled {
			e.release(en.slot)
		} else {
			kept = append(kept, en)
		}
	}
	e.heap = kept
	e.nCancelled = 0
	e.nCompactions++
	for i := len(e.heap)/2 - 1; i >= 0; i-- {
		e.siftDown(i)
	}
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports whether an event was executed.
func (e *Engine) Step() bool {
	for len(e.heap) > 0 {
		en := e.pop()
		s := &e.slots[en.slot]
		if s.cancelled {
			e.release(en.slot)
			e.nCancelled--
			continue
		}
		// Release before running, so the event's own Timer reports Stopped
		// inside the callback and the callback may reuse the slot.
		fn := s.fn
		e.release(en.slot)
		e.now = en.at
		e.nRun++
		fn()
		return true
	}
	return false
}

// Run executes events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// exactly t. Events scheduled for later remain pending.
func (e *Engine) RunUntil(t time.Duration) {
	for {
		at, ok := e.nextAt()
		if !ok || at > t {
			break
		}
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// RunFor executes events for a span d of virtual time from now.
func (e *Engine) RunFor(d time.Duration) {
	e.RunUntil(e.now + d)
}

// nextAt reports the timestamp of the earliest pending event, if any,
// discarding cancelled events at the top of the heap on the way.
func (e *Engine) nextAt() (time.Duration, bool) {
	for len(e.heap) > 0 {
		top := e.heap[0]
		if !e.slots[top.slot].cancelled {
			return top.at, true
		}
		e.pop()
		e.release(top.slot)
		e.nCancelled--
	}
	return 0, false
}

// less orders entries by (time, insertion sequence) so simultaneous events
// run in the order they were scheduled — the determinism guarantee.
func less(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// pop removes and returns the heap's minimum entry.
func (e *Engine) pop() entry {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	e.heap = h[:n]
	if n > 1 {
		e.siftDown(0)
	}
	return top
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	en := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !less(en, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = en
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	en := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && less(h[r], h[c]) {
			c = r
		}
		if !less(h[c], en) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = en
}
