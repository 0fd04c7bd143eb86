package radio

import (
	"encoding/binary"
	"hash/fnv"
	"math"
)

// Shadowed is a unit-disk topology with log-normal shadowing: each node
// pair carries a fixed random fade, so coverage is irregular rather than
// circular — closer to the "vagaries of RF connectivity" the paper keeps
// invoking than an ideal disk. A pair is connected when
//
//	distance * 10^(fade/10) <= Range
//
// with fade ~ Normal(0, Sigma) dB, drawn deterministically per unordered
// pair from the topology's seed, so connectivity is stable across a run
// and reproducible across runs. Fades are symmetric (the same both ways).
type Shadowed struct {
	// Range is the nominal radio range (the zero-fade disk radius).
	Range float64
	// Sigma is the shadowing standard deviation in dB; 0 degrades to a
	// pure unit disk. Field measurements commonly sit in 4-8 dB.
	Sigma float64

	seed      uint64
	positions posTable
}

// NewShadowed returns an empty shadowed topology.
func NewShadowed(radioRange, sigmaDB float64, seed uint64) *Shadowed {
	return &Shadowed{Range: radioRange, Sigma: sigmaDB, seed: seed}
}

// Place sets (or moves) a node's position.
func (s *Shadowed) Place(id NodeID, p Point) { s.positions.set(id, p) }

// Position returns the node's position and whether it has been placed.
func (s *Shadowed) Position(id NodeID) (Point, bool) {
	return s.positions.get(id)
}

// FadeDB returns the pair's fixed shadowing fade in dB.
func (s *Shadowed) FadeDB(a, b NodeID) float64 {
	if s.Sigma <= 0 {
		return 0
	}
	return s.Sigma * pairGaussian(s.seed, a, b)
}

// Connected reports whether the faded distance is within range.
func (s *Shadowed) Connected(from, to NodeID) bool {
	if from == to {
		return false
	}
	a, okA := s.positions.get(from)
	b, okB := s.positions.get(to)
	if !okA || !okB {
		return false
	}
	d := a.Dist(b)
	if d == 0 {
		return true
	}
	effective := d * math.Pow(10, s.FadeDB(from, to)/10)
	return effective <= s.Range
}

// pairGaussian derives a deterministic standard-normal draw for an
// unordered node pair via a hash-seeded Box-Muller transform.
func pairGaussian(seed uint64, a, b NodeID) float64 {
	if a > b {
		a, b = b, a
	}
	u1 := pairUniform(seed, a, b, 0)
	u2 := pairUniform(seed, a, b, 1)
	// Box-Muller; u1 is bounded away from 0 by construction below.
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// pairUniform hashes (seed, a, b, k) into (0, 1).
func pairUniform(seed uint64, a, b NodeID, k uint64) float64 {
	h := fnv.New64a()
	var buf [8 * 4]byte
	binary.LittleEndian.PutUint64(buf[0:], seed)
	binary.LittleEndian.PutUint64(buf[8:], uint64(a))
	binary.LittleEndian.PutUint64(buf[16:], uint64(b))
	binary.LittleEndian.PutUint64(buf[24:], k)
	_, _ = h.Write(buf[:])
	// FNV's avalanche is weak on structured input; finish with the
	// SplitMix64 finalizer before mapping to (0, 1). Add 1 to avoid an
	// exact zero.
	z := h.Sum64() + 0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	z ^= z >> 31
	return (float64(z>>11) + 1) / float64(1<<53)
}
