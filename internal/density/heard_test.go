package density

import (
	"math/rand/v2"
	"testing"
	"time"
)

// mapRef is the map-backed idle-gap estimator the slice-backed heardSet
// replaced, kept as the reference: prune on every access, EMA over the
// active count, completion removes immediately.
type mapRef struct {
	idleGap   time.Duration
	alpha     float64
	lastHeard map[uint64]time.Duration
	ema       float64
	seeded    bool
}

func (r *mapRef) prune(t time.Duration) {
	for id, last := range r.lastHeard {
		if t-last > r.idleGap {
			delete(r.lastHeard, id)
		}
	}
}

func (r *mapRef) update() {
	active := float64(len(r.lastHeard))
	if !r.seeded {
		r.ema, r.seeded = active, true
		return
	}
	r.ema = r.alpha*active + (1-r.alpha)*r.ema
}

func (r *mapRef) observe(id uint64, t time.Duration) {
	r.prune(t)
	r.lastHeard[id] = t
	r.update()
}

func (r *mapRef) complete(id uint64, t time.Duration) {
	r.prune(t)
	if _, ok := r.lastHeard[id]; !ok {
		return
	}
	delete(r.lastHeard, id)
	r.update()
}

func (r *mapRef) active(t time.Duration) int {
	r.prune(t)
	return len(r.lastHeard)
}

func (r *mapRef) estimate() float64 {
	if !r.seeded || r.ema < 1 {
		return 1
	}
	return r.ema
}

func (r *mapRef) window() int {
	t := r.estimate()
	n := int(t)
	if float64(n) < t {
		n++
	}
	return 2 * n
}

// TestHeardSetMatchesMapReference replays random Observe, ObserveComplete
// and Reset traces through both fragment-sampled estimators and the map
// reference; Active, Estimate and Window must agree exactly at every step.
func TestHeardSetMatchesMapReference(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewPCG(seed, 3))
		var now time.Duration
		clock := func() time.Duration { return now }
		idle := time.Duration(20+rng.IntN(100)) * time.Millisecond
		plain := New(idle, 0.1, clock)
		turn := NewTurnover(idle, 0.1, clock)
		refPlain := &mapRef{idleGap: idle, alpha: 0.1, lastHeard: map[uint64]time.Duration{}}
		refTurn := &mapRef{idleGap: idle, alpha: 0.1, lastHeard: map[uint64]time.Duration{}}
		ids := uint64(4 + rng.IntN(60))
		for step := 0; step < 2000; step++ {
			now += time.Duration(rng.IntN(15)) * time.Millisecond
			id := rng.Uint64N(ids)
			switch r := rng.IntN(100); {
			case r < 70:
				plain.Observe(id)
				turn.Observe(id)
				refPlain.observe(id, now)
				refTurn.observe(id, now)
			case r < 98:
				turn.ObserveComplete(id)
				refTurn.complete(id, now)
			default:
				plain.Reset()
				turn.Reset()
				refPlain = &mapRef{idleGap: idle, alpha: 0.1, lastHeard: map[uint64]time.Duration{}}
				refTurn = &mapRef{idleGap: idle, alpha: 0.1, lastHeard: map[uint64]time.Duration{}}
			}
			if a, b := plain.Active(), refPlain.active(now); a != b {
				t.Fatalf("seed %d step %d: Estimator.Active = %d, reference %d", seed, step, a, b)
			}
			if a, b := turn.Active(), refTurn.active(now); a != b {
				t.Fatalf("seed %d step %d: TurnoverEstimator.Active = %d, reference %d", seed, step, a, b)
			}
			if plain.Estimate() != refPlain.estimate() || plain.Window() != refPlain.window() {
				t.Fatalf("seed %d step %d: Estimator (%v, %d) != reference (%v, %d)", seed, step,
					plain.Estimate(), plain.Window(), refPlain.estimate(), refPlain.window())
			}
			if turn.Estimate() != refTurn.estimate() || turn.Window() != refTurn.window() {
				t.Fatalf("seed %d step %d: TurnoverEstimator (%v, %d) != reference (%v, %d)", seed, step,
					turn.Estimate(), turn.Window(), refTurn.estimate(), refTurn.window())
			}
		}
	}
}
