package faults

import "retri/internal/radio"

// FlakyTopology wraps any radio.Topology with a set of administratively
// severed links, so the fault engine can flap individual edges without
// knowing how the base topology computes connectivity. Severed links are
// symmetric, like every provided topology.
type FlakyTopology struct {
	base radio.Topology
	down map[[2]radio.NodeID]bool
}

var _ radio.Topology = (*FlakyTopology)(nil)

// NewFlakyTopology wraps base with no links severed.
func NewFlakyTopology(base radio.Topology) *FlakyTopology {
	return &FlakyTopology{base: base, down: make(map[[2]radio.NodeID]bool)}
}

// SetLinkDown severs or restores the symmetric link a—b. Severing a link
// the base topology never had is harmless.
func (f *FlakyTopology) SetLinkDown(a, b radio.NodeID, isDown bool) {
	if a == b {
		return
	}
	key := edgeKey(a, b)
	if isDown {
		f.down[key] = true
	} else {
		delete(f.down, key)
	}
}

// LinkDown reports whether the link a—b is currently severed.
func (f *FlakyTopology) LinkDown(a, b radio.NodeID) bool {
	return f.down[edgeKey(a, b)]
}

// Connected reports base connectivity minus severed links. While no link
// is severed it skips the lookup, which the medium would otherwise pay
// for every frame and receiver.
func (f *FlakyTopology) Connected(from, to radio.NodeID) bool {
	if len(f.down) > 0 && f.down[edgeKey(from, to)] {
		return false
	}
	return f.base.Connected(from, to)
}

func edgeKey(a, b radio.NodeID) [2]radio.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]radio.NodeID{a, b}
}
