// Package shard is the region-sharded simulation core: it partitions a
// trial's world into tiles, runs one sequential event loop per tile, and
// synchronises tiles with conservative lookahead windows so a single trial
// can span 10^5–10^6 nodes while remaining bit-for-bit deterministic at any
// worker count.
//
// # Model
//
// Virtual time advances in fixed windows of length Lookahead, which callers
// must set to the minimum radio frame airtime. Each window has two phases:
//
//	Phase 1 (Advance): every region runs its own event heap up to the
//	window end, in parallel. Sender-side events fire here and emit
//	transmission Records; nothing receiver-side is decided yet.
//
//	Barrier (Emit): the driver gathers each region's new records
//	sequentially, in region-index order, into one batch. Record order is
//	therefore a pure function of the region layout, never of worker
//	scheduling — the internal/runner merge-by-index pattern pushed down
//	into a single trial.
//
//	Phase 2 (Absorb+Settle): every region, again in parallel, absorbs the
//	read-only batch and settles reception verdicts for records whose
//	airtime ended inside the window just run.
//
// The settle rule is what makes the lookahead conservative: a record r with
// r.End <= windowEnd can only overlap transmissions o with
// o.Start < r.End <= windowEnd, and any such o was emitted in this window
// or earlier (its start event has already run), so it is already in the
// receiver's absorbed set. No tile can learn about a colliding frame "late".
//
// Determinism rules for regions: per-tile state is touched only by that
// tile's sequential Advance/Settle; randomness comes from per-tile labelled
// streams consumed only inside those calls; Settle must not draw from the
// stream at all (per-receiver noise uses counter-based hashing instead), so
// verdict evaluation order cannot shift the stream. Under those rules the
// whole trial is byte-stable for any worker count, including workers=1.
package shard

import (
	"fmt"
	"time"

	"retri/internal/runner"
)

// Record is one transmitted frame crossing the barrier: everything a
// receiving tile needs to judge reception locally. Records are immutable
// once emitted.
type Record struct {
	// Seq is globally unique and ordered within a tile:
	// tileIndex<<32 | per-tile emission counter. It breaks ties
	// deterministically and seeds per-receiver loss hashing.
	Seq uint64
	// From is the sender's global node id.
	From uint32
	// X, Y is the sender's position at transmission time.
	X, Y float32
	// Start and End bound the frame's airtime, End = Start + airtime.
	Start, End time.Duration
	// WK is the transaction's identifier under core.WidthKey (width and
	// id bits together), Tx the sender's ground-truth transaction counter.
	WK uint64
	Tx uint32
	// Frag and NFrag place the frame inside its transaction.
	Frag, NFrag uint8
}

// Region is one shard of the world. The driver guarantees: Advance, Absorb
// and Settle are each called once per window, never concurrently for the
// same region; Emit and Idle are called only from the sequential barrier.
type Region interface {
	// Advance runs the region's own events with timestamps <= to. It must
	// not touch any other region's state.
	Advance(to time.Duration)
	// Emit appends records produced since the previous barrier and returns
	// the extended slice. Called sequentially in region-index order.
	Emit(into []Record) []Record
	// Absorb hands the region the window's full record batch, read-only
	// and shared across regions. The region keeps (copies of) the records
	// that can matter to its own receivers.
	Absorb(batch []Record)
	// Settle decides reception verdicts for absorbed records with
	// End <= to, updating only region-local state.
	Settle(to time.Duration)
	// Idle reports whether the region has no pending events.
	Idle() bool
}

// Router narrows the barrier exchange: Route appends to into the indices
// of every region that might need record r (conservatively — extra targets
// cost time, missing ones lose frames). With a Router set the driver builds
// per-region inboxes sequentially at the barrier, so Absorb sees only
// records routed to it; without one, every region absorbs the full batch.
type Router interface {
	Route(r *Record, into []int32) []int32
}

// RunStats is the driver's own accounting for the observability layer.
type RunStats struct {
	// Windows counts barrier windows executed.
	Windows uint64
	// Exchanged counts records that crossed the barrier.
	Exchanged uint64
}

// Engine drives a set of regions through lookahead windows on a persistent
// worker pool. It is single-use per trial: construct, Run, Close.
type Engine struct {
	// OnBarrier, when set, runs sequentially after every window at the
	// new safe time — the hook for probes and progress reporting.
	OnBarrier func(now time.Duration)
	// Router, when set, narrows each region's Absorb to the records
	// actually routed to it. Must be set before Run.
	Router Router

	lookahead time.Duration
	regions   []Region
	pool      *runner.Pool
	now       time.Duration
	stats     RunStats
	batch     []Record
	inbox     [][]Record
	route     []int32
}

// NewEngine creates a driver over the given regions. lookahead must be
// positive and no larger than the shortest frame airtime any region will
// emit; workers <= 1 runs everything inline.
func NewEngine(lookahead time.Duration, workers int, regions ...Region) *Engine {
	if lookahead <= 0 {
		panic(fmt.Sprintf("shard: lookahead must be positive, got %v", lookahead))
	}
	return &Engine{
		lookahead: lookahead,
		regions:   regions,
		pool:      runner.NewPool(workers),
	}
}

// Now returns the trial's safe time: every event before it has run.
func (e *Engine) Now() time.Duration { return e.now }

// Stats returns driver accounting.
func (e *Engine) Stats() RunStats { return e.stats }

// Run executes windows until the safe time reaches horizon, stopping at
// the first barrier at or past it. Regions are striped across the
// pool's workers; because every region is independent between barriers,
// the striping pattern cannot affect results. The two phase closures are
// bound once per call and read the window end from end, so a window
// allocates nothing of its own.
func (e *Engine) Run(horizon time.Duration) {
	n := len(e.regions)
	w := min(e.pool.Workers(), n)
	var end time.Duration
	advance := func(worker int) {
		for i := worker; i < n; i += w {
			e.regions[i].Advance(end)
		}
	}
	settle := func(worker int) {
		for i := worker; i < n; i += w {
			in := e.batch
			if e.Router != nil {
				in = e.inbox[i]
			}
			if len(in) > 0 {
				e.regions[i].Absorb(in)
			}
			e.regions[i].Settle(end)
		}
	}
	for e.now < horizon {
		end = e.now + e.lookahead
		e.pool.Each(w, advance)
		e.batch = e.batch[:0]
		for _, r := range e.regions {
			e.batch = r.Emit(e.batch)
		}
		e.stats.Exchanged += uint64(len(e.batch))
		if e.Router != nil {
			if e.inbox == nil {
				e.inbox = make([][]Record, n)
			}
			for i := range e.inbox {
				e.inbox[i] = e.inbox[i][:0]
			}
			for j := range e.batch {
				e.route = e.Router.Route(&e.batch[j], e.route[:0])
				for _, ti := range e.route {
					e.inbox[ti] = append(e.inbox[ti], e.batch[j])
				}
			}
		}
		e.pool.Each(w, settle)
		e.now = end
		e.stats.Windows++
		if e.OnBarrier != nil {
			e.OnBarrier(e.now)
		}
	}
}

// Close releases the worker pool.
func (e *Engine) Close() { e.pool.Close() }
