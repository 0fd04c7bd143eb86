// Package core implements RETRI — Random, Ephemeral TRansaction
// Identifiers — the paper's primary contribution (Section 3).
//
// Wherever a protocol needs a unique identifier, a node instead draws a
// short, probabilistically unique identifier from a small pool and uses it
// for exactly one transaction. Collisions are not resolved; they surface as
// ordinary loss, and choosing a fresh identifier per transaction prevents
// persistent collisions.
//
// Two selection algorithms from the paper are provided:
//
//   - UniformSelector: identifiers drawn uniformly at random with no learned
//     state — the pessimistic case analysed by Equation 4.
//   - ListeningSelector: identifiers drawn uniformly from the pool of
//     not-recently-heard identifiers, where "recently" is the most recent
//     2T observed transactions and T is estimated online (Section 5.1).
//
// A SequentialSelector is included for ablations: it shows why *ephemeral*
// randomness matters (deterministic choices collide persistently).
package core

import (
	"fmt"
	"math/rand/v2"
)

// MaxBits bounds identifier width; the paper never considers identifiers
// wider than a 32-bit static address.
const MaxBits = 32

// Space is an identifier pool of 2^Bits values.
type Space struct {
	bits int
}

// NewSpace validates bits and returns the identifier space.
func NewSpace(bits int) (Space, error) {
	if bits < 1 || bits > MaxBits {
		return Space{}, fmt.Errorf("core: identifier width %d out of range [1, %d]", bits, MaxBits)
	}
	return Space{bits: bits}, nil
}

// MustSpace is NewSpace for compile-time-constant widths.
func MustSpace(bits int) Space {
	s, err := NewSpace(bits)
	if err != nil {
		panic(err)
	}
	return s
}

// Bits returns the identifier width.
func (s Space) Bits() int { return s.bits }

// Size returns the number of identifiers in the pool, 2^Bits.
func (s Space) Size() uint64 { return uint64(1) << uint(s.bits) }

// Contains reports whether id is representable in the space.
func (s Space) Contains(id uint64) bool { return id < s.Size() }

// WidthKey packs an identifier heard at a given width into the canonical
// cross-width observation keyspace. Identifiers drawn at different widths
// are distinct transactions even when their numeric values coincide — a
// 4-bit id 3 and a 9-bit id 3 never share the air — so every piece of
// learned selection state that survives a width change is keyed by the
// (width, id) composite. Widths are at most MaxBits (32), so the pair
// packs losslessly into one uint64.
func WidthKey(bits int, id uint64) uint64 {
	return uint64(bits)<<32 | id
}

// SplitWidthKey undoes WidthKey, returning the width and raw identifier.
func SplitWidthKey(key uint64) (bits int, id uint64) {
	return int(key >> 32), key & (1<<32 - 1)
}

// widthSize is the pool size of a width-bits keyspace.
func widthSize(bits int) uint64 { return uint64(1) << uint(bits) }

// Selector chooses the identifier for each new transaction.
//
// The keyspace contract: Next and NextWidth return raw identifiers in
// [0, 2^width); Observe and ObserveWidth take raw identifiers paired with
// the width they were heard at. Observe(id) is shorthand for
// ObserveWidth(Space().Bits(), id), and Next() for
// NextWidth(Space().Bits()), so fixed-width deployments never see widths
// at all. Selectors with learned state key it by the WidthKey composite
// internally — never by raw identifiers — so adaptive-width observations
// can always match future draws at the same width.
type Selector interface {
	// Next returns the identifier for a new transaction at the full space
	// width.
	Next() uint64
	// NextWidth returns the identifier for a new transaction drawn at the
	// given width; bits must be in [1, Space().Bits()]. The draw is a
	// first-class strategy decision, not a masked full-width draw: a
	// strategy that is collision-free or counter-driven within one width
	// class stays so under adaptive width.
	NextWidth(bits int) uint64
	// Observe informs the selector that id was seen in use at the full
	// space width (a heard transaction, or a receiver's collision
	// notification). Selectors without learned state ignore it.
	Observe(id uint64)
	// ObserveWidth informs the selector that id was seen in use at the
	// given width. Out-of-range widths or identifiers are ignored.
	ObserveWidth(bits int, id uint64)
	// Space returns the identifier space the selector draws from.
	Space() Space
	// Name identifies the algorithm for experiment output.
	Name() string
}

// UniformSelector draws identifiers uniformly at random, independent of any
// observed state. This is the algorithm the analytic model assumes
// (Section 4.1: "every node picks its transaction identifiers uniformly
// from the identifier space without regard to any learned state").
type UniformSelector struct {
	space Space
	rng   *rand.Rand
}

var _ Selector = (*UniformSelector)(nil)

// NewUniformSelector returns a uniform selector over space using rng.
func NewUniformSelector(space Space, rng *rand.Rand) *UniformSelector {
	return &UniformSelector{space: space, rng: rng}
}

// Next draws uniformly from the space.
func (u *UniformSelector) Next() uint64 { return u.rng.Uint64N(u.space.Size()) }

// NextWidth draws uniformly from the width-bits keyspace. A fresh bounded
// draw, not a masked full-width one, so narrow draws stay exactly uniform.
func (u *UniformSelector) NextWidth(bits int) uint64 { return u.rng.Uint64N(widthSize(bits)) }

// Observe is a no-op: the uniform selector keeps no learned state.
func (u *UniformSelector) Observe(uint64) {}

// ObserveWidth is a no-op: the uniform selector keeps no learned state.
func (u *UniformSelector) ObserveWidth(int, uint64) {}

// Space returns the identifier space.
func (u *UniformSelector) Space() Space { return u.space }

// Name returns "uniform".
func (u *UniformSelector) Name() string { return "uniform" }

// WindowFunc reports the current listening-window size in transactions.
// The paper's adaptive rule is 2T with T estimated from observed concurrent
// transactions; wire an Estimator's view in here.
type WindowFunc func() int

// ListeningSelector avoids identifiers heard recently on the channel: the
// choice is uniform over the pool of not-recently-used identifiers
// (Section 5.1). When every identifier in the space has been heard
// recently, it falls back to a uniform draw — listening can only help, not
// block.
//
// Learned state is keyed by the (width, id) WidthKey composite: an
// identifier heard at width 4 only blocks future draws at width 4, because
// only same-width transactions share its reassembly keyspace on the air.
// Fixed-width deployments see exactly the old behaviour — every key then
// carries the one space width.
type ListeningSelector struct {
	space  Space
	rng    *rand.Rand
	window WindowFunc

	// recent is a FIFO of the last window observed (width, id) keys.
	recent []uint64
	counts map[uint64]int
	// perWidth counts distinct identifiers currently in the window per
	// width class, so the exhausted-pool fallback compares a width's
	// distinct count against that width's own pool size — never against
	// composite-key totals, which could exceed it.
	perWidth map[int]int
}

var _ Selector = (*ListeningSelector)(nil)

// NewListeningSelector returns a listening selector whose window size is
// reevaluated via window on every observation. A nil window selects a
// fixed window of 2*DefaultAssumedT transactions.
func NewListeningSelector(space Space, rng *rand.Rand, window WindowFunc) *ListeningSelector {
	if window == nil {
		fixed := 2 * DefaultAssumedT
		window = func() int { return fixed }
	}
	return &ListeningSelector{
		space:    space,
		rng:      rng,
		window:   window,
		counts:   make(map[uint64]int),
		perWidth: make(map[int]int),
	}
}

// DefaultAssumedT is the transaction density assumed when no estimator is
// wired in; it matches the paper's five-transmitter experiment.
const DefaultAssumedT = 5

// FixedWindow returns a WindowFunc that always reports n.
func FixedWindow(n int) WindowFunc { return func() int { return n } }

// Next draws uniformly from identifiers not in the recent window, falling
// back to a fully uniform draw when the window covers the whole space.
func (l *ListeningSelector) Next() uint64 { return l.NextWidth(l.space.Bits()) }

// NextWidth draws uniformly from width-bits identifiers not recently heard
// at that width, falling back to a fully uniform draw when the window
// covers the whole width-bits pool.
func (l *ListeningSelector) NextWidth(bits int) uint64 {
	size := widthSize(bits)
	distinct := uint64(l.perWidth[bits])
	if distinct >= size {
		return l.rng.Uint64N(size)
	}
	if size <= 4096 {
		// Small pool: enumerate the complement for an exactly uniform
		// draw even when most identifiers are excluded.
		k := l.rng.Uint64N(size - distinct)
		for id := uint64(0); id < size; id++ {
			if l.counts[WidthKey(bits, id)] > 0 {
				continue
			}
			if k == 0 {
				return id
			}
			k--
		}
		// Unreachable: distinct < size guarantees a return above.
	}
	// Large pool: rejection sampling terminates almost immediately since
	// the window is tiny relative to the pool.
	for i := 0; i < 256; i++ {
		id := l.rng.Uint64N(size)
		if l.counts[WidthKey(bits, id)] == 0 {
			return id
		}
	}
	return l.rng.Uint64N(size)
}

// Observe records an identifier heard at the full space width and evicts
// entries older than the current window.
func (l *ListeningSelector) Observe(id uint64) {
	l.ObserveWidth(l.space.Bits(), id)
}

// ObserveWidth records an identifier heard at the given width and evicts
// entries older than the current window.
func (l *ListeningSelector) ObserveWidth(bits int, id uint64) {
	if bits < 1 || bits > l.space.Bits() || id >= widthSize(bits) {
		return
	}
	key := WidthKey(bits, id)
	l.recent = append(l.recent, key)
	if l.counts[key] == 0 {
		l.perWidth[bits]++
	}
	l.counts[key]++
	l.trim(l.window())
}

// Recent reports the number of observations currently in the window.
func (l *ListeningSelector) Recent() int { return len(l.recent) }

// Reset forgets every observation, modelling a node crash: the listening
// window lives in RAM, so a restarted node selects as if freshly booted
// until it has listened again.
func (l *ListeningSelector) Reset() {
	l.recent = nil
	l.counts = make(map[uint64]int)
	l.perWidth = make(map[int]int)
}

// RecentDistinct reports the number of distinct identifiers in the window.
func (l *ListeningSelector) RecentDistinct() int { return len(l.counts) }

// Space returns the identifier space.
func (l *ListeningSelector) Space() Space { return l.space }

// Name returns "listening".
func (l *ListeningSelector) Name() string { return "listening" }

// trim forgets the observations older than the window. It drops them
// from the front of recent in place, so ObserveWidth's append keeps
// reusing one backing array.
func (l *ListeningSelector) trim(window int) {
	if window < 0 {
		window = 0
	}
	drop := len(l.recent) - window
	if drop <= 0 {
		return
	}
	for _, old := range l.recent[:drop] {
		if l.counts[old] <= 1 {
			delete(l.counts, old)
			bits, _ := SplitWidthKey(old)
			l.perWidth[bits]--
			if l.perWidth[bits] <= 0 {
				delete(l.perWidth, bits)
			}
		} else {
			l.counts[old]--
		}
	}
	l.recent = l.recent[:copy(l.recent, l.recent[drop:])]
}

// SequentialSelector cycles deterministically through the space. It is not
// part of the paper's design — it exists as the ablation control showing
// that deterministic identifier choice produces *persistent* collisions
// when two nodes start in phase, the failure mode RETRI's per-transaction
// randomness eliminates (Section 3.1).
type SequentialSelector struct {
	space Space
	next  uint64
}

var _ Selector = (*SequentialSelector)(nil)

// NewSequentialSelector returns a selector that yields start, start+1, ...
// modulo the space size.
func NewSequentialSelector(space Space, start uint64) *SequentialSelector {
	return &SequentialSelector{space: space, next: start % space.Size()}
}

// Next returns the next identifier in sequence.
func (s *SequentialSelector) Next() uint64 {
	id := s.next
	s.next = (s.next + 1) % s.space.Size()
	return id
}

// NextWidth returns the shared counter masked to the requested width, then
// advances it. The space size is a power-of-two multiple of every narrower
// pool, so each width class still sees a deterministic full cycle — the
// persistent-collision failure mode this ablation exists to show.
func (s *SequentialSelector) NextWidth(bits int) uint64 {
	id := s.next & (widthSize(bits) - 1)
	s.next = (s.next + 1) % s.space.Size()
	return id
}

// Observe is a no-op.
func (s *SequentialSelector) Observe(uint64) {}

// ObserveWidth is a no-op.
func (s *SequentialSelector) ObserveWidth(int, uint64) {}

// Space returns the identifier space.
func (s *SequentialSelector) Space() Space { return s.space }

// Name returns "sequential".
func (s *SequentialSelector) Name() string { return "sequential" }
