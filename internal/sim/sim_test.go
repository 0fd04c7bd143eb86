package sim

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
	e.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	e.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("execution order = %v, want [1 2 3]", order)
	}
	if e.Now() != 30*time.Millisecond {
		t.Errorf("Now() = %v, want 30ms", e.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events ran out of order: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []time.Duration
	e.Schedule(time.Second, func() {
		hits = append(hits, e.Now())
		e.Schedule(time.Second, func() {
			hits = append(hits, e.Now())
		})
	})
	e.Run()
	if len(hits) != 2 || hits[0] != time.Second || hits[1] != 2*time.Second {
		t.Errorf("hits = %v, want [1s 2s]", hits)
	}
}

func TestScheduleZeroAndNegativeDelay(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Second, func() {})
	e.Run()

	fired := false
	e.Schedule(-5*time.Second, func() {
		fired = true
		if e.Now() != time.Second {
			t.Errorf("negative delay fired at %v, want clamp to 1s", e.Now())
		}
	})
	e.Run()
	if !fired {
		t.Error("negative-delay event never fired")
	}
}

func TestScheduleAtPastClamped(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Minute, func() {})
	e.Run()
	var at time.Duration
	e.ScheduleAt(time.Second, func() { at = e.Now() })
	e.Run()
	if at != time.Minute {
		t.Errorf("past ScheduleAt fired at %v, want clamped to 1m", at)
	}
}

func TestTimerCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.Schedule(time.Second, func() { fired = true })
	if tm.Stopped() {
		t.Error("fresh timer reports Stopped")
	}
	if !tm.Cancel() {
		t.Error("first Cancel returned false")
	}
	if tm.Cancel() {
		t.Error("second Cancel returned true")
	}
	if !tm.Stopped() {
		t.Error("cancelled timer does not report Stopped")
	}
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestTimerCancelAfterFire(t *testing.T) {
	e := NewEngine()
	tm := e.Schedule(time.Second, func() {})
	e.Run()
	if tm.Cancel() {
		t.Error("Cancel after fire returned true")
	}
	if !tm.Stopped() {
		t.Error("fired timer does not report Stopped")
	}
	// The zero Timer is stopped too, and cancelling it does nothing.
	var zero Timer
	if !zero.Stopped() || zero.Cancel() {
		t.Error("zero Timer methods misbehave")
	}
}

// TestStaleTimerAfterSlotReuse: once an event fires or its cancelled entry
// is discarded, its slot is recycled for the next event. The old handle
// must then be inert — Cancel returns false and leaves the new event alone.
func TestStaleTimerAfterSlotReuse(t *testing.T) {
	for _, cancelFirst := range []bool{false, true} {
		e := NewEngine()
		old := e.Schedule(time.Second, func() {})
		if cancelFirst {
			old.Cancel()
		}
		e.Run() // fires old, or pops and discards its cancelled entry
		fired := false
		fresh := e.Schedule(time.Second, func() { fired = true })
		if fresh.slot != old.slot {
			t.Fatalf("cancelled=%v: new event took slot %d, want recycled slot %d", cancelFirst, fresh.slot, old.slot)
		}
		if !old.Stopped() {
			t.Errorf("cancelled=%v: stale handle reports pending", cancelFirst)
		}
		if old.Cancel() {
			t.Errorf("cancelled=%v: stale handle's Cancel returned true", cancelFirst)
		}
		if fresh.Stopped() {
			t.Errorf("cancelled=%v: stale Cancel stopped the new event", cancelFirst)
		}
		e.Run()
		if !fired {
			t.Errorf("cancelled=%v: new event in the recycled slot never fired", cancelFirst)
		}
	}
}

// TestTimerStoppedInsideOwnCallback: an event's handle reports Stopped while
// its callback runs, and cancelling it there is a no-op.
func TestTimerStoppedInsideOwnCallback(t *testing.T) {
	e := NewEngine()
	var tm Timer
	tm = e.Schedule(time.Second, func() {
		if !tm.Stopped() || tm.Cancel() {
			t.Error("handle still live inside its own callback")
		}
	})
	e.Run()
	if got := e.Stats().Cancelled; got != 0 {
		t.Errorf("Cancelled = %d, want 0", got)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []int
	e.Schedule(1*time.Second, func() { fired = append(fired, 1) })
	e.Schedule(2*time.Second, func() { fired = append(fired, 2) })
	e.Schedule(3*time.Second, func() { fired = append(fired, 3) })
	e.RunUntil(2 * time.Second)
	if len(fired) != 2 {
		t.Errorf("fired = %v, want events 1 and 2", fired)
	}
	if e.Now() != 2*time.Second {
		t.Errorf("Now() = %v, want 2s", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", e.Pending())
	}
	e.Run()
	if len(fired) != 3 {
		t.Errorf("after Run, fired = %v, want all three", fired)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(5 * time.Second)
	if e.Now() != 5*time.Second {
		t.Errorf("Now() = %v, want 5s with empty queue", e.Now())
	}
}

func TestRunFor(t *testing.T) {
	e := NewEngine()
	e.RunUntil(time.Second)
	fired := false
	e.Schedule(500*time.Millisecond, func() { fired = true })
	e.RunFor(time.Second)
	if !fired {
		t.Error("event within RunFor window did not fire")
	}
	if e.Now() != 2*time.Second {
		t.Errorf("Now() = %v, want 2s", e.Now())
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Error("Step on empty engine returned true")
	}
	e.Schedule(0, func() {})
	if !e.Step() {
		t.Error("Step with pending event returned false")
	}
	if e.Processed() != 1 {
		t.Errorf("Processed() = %d, want 1", e.Processed())
	}
}

func TestPendingSkipsCancelled(t *testing.T) {
	e := NewEngine()
	tm := e.Schedule(time.Second, func() {})
	e.Schedule(time.Second, func() {})
	tm.Cancel()
	if e.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", e.Pending())
	}
}

// TestCancelledTimerCompaction: regression for unbounded heap growth. A
// long-lived simulation that keeps cancelling and rescheduling timers (MAC
// backoffs, reassembly timeouts) must not accumulate cancelled entries.
func TestCancelledTimerCompaction(t *testing.T) {
	e := NewEngine()
	// One live anchor event so the heap is never trivially empty.
	anchor := e.Schedule(time.Hour, func() {})
	maxLen := 0
	for i := 0; i < 100000; i++ {
		tm := e.Schedule(time.Minute, func() {})
		tm.Cancel()
		if len(e.heap) > maxLen {
			maxLen = len(e.heap)
		}
	}
	// Lazy deletion may keep up to 2x the live count plus the compaction
	// floor; anything near 1e5 means cancelled events leaked.
	if maxLen > 4*compactThreshold {
		t.Fatalf("heap grew to %d entries across 1e5 cancel/reschedule cycles", maxLen)
	}
	if got := e.Pending(); got != 1 {
		t.Errorf("Pending() = %d, want 1 (the anchor)", got)
	}
	fired := 0
	e.Schedule(2*time.Hour, func() { fired++ })
	anchor.Cancel()
	e.Run()
	if fired != 1 {
		t.Errorf("post-compaction event fired %d times, want 1", fired)
	}
}

// TestCompactionPreservesOrder: compaction must not disturb the
// (time, sequence) execution order of surviving events.
func TestCompactionPreservesOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		e.Schedule(time.Duration(50-i)*time.Second, func() { order = append(order, i) })
	}
	// Force several compactions around the live events.
	for i := 0; i < 1000; i++ {
		e.Schedule(time.Hour, func() {}).Cancel()
	}
	e.RunUntil(51 * time.Second)
	if len(order) != 50 {
		t.Fatalf("ran %d events, want 50", len(order))
	}
	for i, v := range order {
		if v != 49-i {
			t.Fatalf("execution order corrupted by compaction: %v", order)
		}
	}
}

// TestPendingCountsAcrossCancelAndRun: the O(1) Pending counter must agree
// with a direct scan through schedule, cancel, and pop paths.
func TestPendingCountsAcrossCancelAndRun(t *testing.T) {
	e := NewEngine()
	var timers []Timer
	for i := 0; i < 200; i++ {
		timers = append(timers, e.Schedule(time.Duration(i)*time.Millisecond, func() {}))
	}
	for i := 0; i < 200; i += 2 {
		timers[i].Cancel()
	}
	check := func() {
		scan := 0
		for _, en := range e.heap {
			if !e.slots[en.slot].cancelled {
				scan++
			}
		}
		if got := e.Pending(); got != scan {
			t.Fatalf("Pending() = %d, scan says %d", got, scan)
		}
	}
	check()
	e.RunUntil(50 * time.Millisecond)
	check()
	e.Run()
	check()
	if e.Pending() != 0 {
		t.Errorf("Pending() = %d after Run, want 0", e.Pending())
	}
}

// TestStatsAccounting: Stats must agree with the operations performed,
// including compactions and the heap high-water mark.
func TestStatsAccounting(t *testing.T) {
	e := NewEngine()
	if (e.Stats() != Stats{}) {
		t.Errorf("fresh engine Stats = %+v, want zero", e.Stats())
	}

	var timers []Timer
	for i := 0; i < 10; i++ {
		timers = append(timers, e.Schedule(time.Duration(i)*time.Second, func() {}))
	}
	timers[0].Cancel()
	timers[1].Cancel()
	timers[1].Cancel() // no-op, must not double-count

	s := e.Stats()
	if s.Scheduled != 10 || s.Cancelled != 2 || s.Pending != 8 || s.Processed != 0 {
		t.Errorf("Stats = %+v, want scheduled 10, cancelled 2, pending 8", s)
	}
	if s.HeapHighWater != 10 {
		t.Errorf("HeapHighWater = %d, want 10", s.HeapHighWater)
	}

	e.Run()
	s = e.Stats()
	if s.Processed != 8 || s.Pending != 0 {
		t.Errorf("after Run, Stats = %+v, want processed 8, pending 0", s)
	}
	if s.HeapHighWater != 10 {
		t.Errorf("high water shrank to %d after Run", s.HeapHighWater)
	}

	// Force compactions with cancel/reschedule churn and verify they are
	// counted and the totals keep up.
	for i := 0; i < 1000; i++ {
		e.Schedule(time.Hour, func() {}).Cancel()
	}
	s = e.Stats()
	if s.Compactions == 0 {
		t.Error("cancel/reschedule churn triggered no compactions")
	}
	if s.Scheduled != 1010 || s.Cancelled != 1002 {
		t.Errorf("after churn, Stats = %+v, want scheduled 1010, cancelled 1002", s)
	}
}

// TestClockMonotonicProperty: under random scheduling, observed event times
// never decrease and never precede their scheduling time.
func TestClockMonotonicProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0))
		e := NewEngine()
		ok := true
		last := time.Duration(0)
		var schedule func(depth int)
		schedule = func(depth int) {
			if depth > 3 {
				return
			}
			n := rng.IntN(5) + 1
			for i := 0; i < n; i++ {
				d := time.Duration(rng.IntN(1000)) * time.Millisecond
				earliest := e.Now() + d
				e.Schedule(d, func() {
					if e.Now() < earliest || e.Now() < last {
						ok = false
					}
					last = e.Now()
					schedule(depth + 1)
				})
			}
		}
		schedule(0)
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestDeterminism: two identical runs process identical event counts and
// finish at identical times.
func TestDeterminism(t *testing.T) {
	run := func() (uint64, time.Duration) {
		rng := rand.New(rand.NewPCG(7, 7))
		e := NewEngine()
		var rec func()
		count := 0
		rec = func() {
			count++
			if count < 200 {
				e.Schedule(time.Duration(rng.IntN(100))*time.Millisecond, rec)
			}
		}
		e.Schedule(0, rec)
		e.Run()
		return e.Processed(), e.Now()
	}
	n1, t1 := run()
	n2, t2 := run()
	if n1 != n2 || t1 != t2 {
		t.Errorf("runs diverged: (%d, %v) vs (%d, %v)", n1, t1, n2, t2)
	}
}

// TestRandomScheduleCancelProperty drives random schedule, cancel and step
// operations against a reference model of the lazy-deletion heap: fire
// order must match a reference sort by (at, seq), and every Stats field —
// compactions and heap high water included — must match a hand count.
func TestRandomScheduleCancelProperty(t *testing.T) {
	type ref struct {
		at        time.Duration
		seq       int
		cancelled bool
		fired     bool
	}
	var compactions uint64
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		e := NewEngine()
		var refs []*ref
		var timers []Timer
		// inHeap is the model heap: every scheduled entry not yet popped or
		// compacted away, cancelled ones included.
		var inHeap []*ref
		var fired []int
		var want Stats
		nCancelled := 0
		// popMin removes and returns the model heap's (at, seq) minimum.
		popMin := func() *ref {
			sort.Slice(inHeap, func(i, j int) bool {
				if inHeap[i].at != inHeap[j].at {
					return inHeap[i].at < inHeap[j].at
				}
				return inHeap[i].seq < inHeap[j].seq
			})
			r := inHeap[0]
			inHeap = inHeap[1:]
			return r
		}
		for op := 0; op < 2000; op++ {
			switch r := rng.IntN(10); {
			case r < 4:
				seq := len(refs)
				at := e.Now() + time.Duration(rng.IntN(50))*time.Millisecond
				refs = append(refs, &ref{at: at, seq: seq})
				inHeap = append(inHeap, refs[seq])
				timers = append(timers, e.ScheduleAt(at, func() { fired = append(fired, seq) }))
				want.Scheduled++
				want.Pending++
				want.HeapHighWater = max(want.HeapHighWater, len(inHeap))
			case r < 8 && len(timers) > 0:
				// Mostly recent timers, so cancels often hit live events.
				i := len(timers) - 1 - rng.IntN(min(len(timers), 100))
				live := !refs[i].cancelled && !refs[i].fired
				if timers[i].Cancel() != live {
					return false
				}
				if !live {
					break
				}
				refs[i].cancelled = true
				nCancelled++
				want.Cancelled++
				want.Pending--
				if len(inHeap) >= compactThreshold && nCancelled*2 > len(inHeap) {
					kept := inHeap[:0]
					for _, r := range inHeap {
						if !r.cancelled {
							kept = append(kept, r)
						}
					}
					inHeap, nCancelled = kept, 0
					want.Compactions++
				}
			default:
				var next *ref
				for len(inHeap) > 0 && next == nil {
					if r := popMin(); r.cancelled {
						nCancelled--
					} else {
						next = r
					}
				}
				n := len(fired)
				if e.Step() != (next != nil) {
					return false
				}
				if next != nil {
					next.fired = true
					want.Processed++
					want.Pending--
					if len(fired) != n+1 || fired[n] != next.seq {
						return false
					}
				}
			}
			if e.Stats() != want || len(e.heap) != len(inHeap) {
				return false
			}
		}
		compactions += want.Compactions
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
	if compactions == 0 {
		t.Error("random operation mix never compacted the heap")
	}
}

// TestSteadyStateAllocs: on a warmed engine, scheduling and firing an event
// and scheduling and cancelling one allocate nothing.
func TestSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 2*compactThreshold; i++ {
		e.Schedule(time.Duration(i), fn)
	}
	e.Run()
	if a := testing.AllocsPerRun(1000, func() {
		e.Schedule(time.Millisecond, fn)
		e.Step()
	}); a != 0 {
		t.Errorf("Schedule+Step: %v allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		e.Schedule(time.Millisecond, fn).Cancel()
	}); a != 0 {
		t.Errorf("Schedule+Cancel: %v allocs, want 0", a)
	}
}

// BenchmarkEngineSteadyState is one schedule and one fire per op on a warm
// engine holding a realistic backlog of pending events.
func BenchmarkEngineSteadyState(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 32; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(32*time.Millisecond, fn)
		e.Step()
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 100; j++ {
			e.Schedule(time.Duration(j)*time.Millisecond, func() {})
		}
		e.Run()
	}
}
