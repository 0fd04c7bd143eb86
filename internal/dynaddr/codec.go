// Package dynaddr implements the alternative the paper argues against in
// Section 2.3: a protocol that dynamically assigns locally unique short
// addresses, in the style of SDR/MASC claim-listen-defend allocation.
//
// A joining node draws a candidate address it has not heard in use,
// broadcasts a CLAIM several times while listening for objections, and
// takes the address if unopposed. A node hearing a CLAIM for its own
// address broadcasts a DEFEND, forcing the claimer to re-draw. Assigned
// nodes send data through the statically addressed fragmentation stack
// using their short address.
//
// Every control message is real traffic: the point of the module is to
// measure the allocation overhead that AFF avoids — "this scheme will be
// efficient only as long as the address-allocation overhead is small
// compared to the amount of useful data transmitted ... In sensor
// networks, the expected dynamics make this scheme potentially very
// inefficient given the low data rate."
//
// Because control messages and data fragments share one radio, every frame
// carries a one-bit demultiplexing prefix (0 = data, 1 = control); like the
// collision-notification extension, that bit is charged as header overhead.
package dynaddr

import (
	"errors"
	"fmt"

	"retri/internal/bitio"
	"retri/internal/frame"
)

// Frame demultiplexer values.
const (
	demuxData    = 0
	demuxControl = 1
)

// Control message kinds.
const (
	// MsgClaim announces a candidate address under consideration.
	MsgClaim = 1
	// MsgDefend rejects a claim for an address already owned.
	MsgDefend = 2
	// MsgAnnounce is a periodic keepalive for an owned address.
	MsgAnnounce = 3
)

const (
	kindBits  = 2
	nonceBits = 16
)

// ErrBadControl is returned for undecodable control frames.
var ErrBadControl = errors.New("dynaddr: malformed control frame")

// Control is an allocation-protocol message.
type Control struct {
	// Kind is MsgClaim, MsgDefend or MsgAnnounce.
	Kind int
	// Addr is the address being claimed, defended or announced.
	Addr uint64
	// Nonce distinguishes claimers that picked the same address.
	Nonce uint16
}

// codec packs control messages and the demux prefix.
type codec struct {
	addrBits int
}

// controlBits is the meaningful size of a control frame on air.
func (c codec) controlBits() int {
	return 1 + kindBits + c.addrBits + nonceBits
}

// encodeControl builds a control frame (with demux prefix).
func (c codec) encodeControl(m Control) ([]byte, int, error) {
	if m.Kind < MsgClaim || m.Kind > MsgAnnounce {
		return nil, 0, fmt.Errorf("dynaddr: bad control kind %d", m.Kind)
	}
	if c.addrBits < 64 && m.Addr >= 1<<uint(c.addrBits) {
		return nil, 0, fmt.Errorf("dynaddr: address %d exceeds %d bits", m.Addr, c.addrBits)
	}
	w := bitio.NewWriter()
	mustWrite(w, demuxControl, 1)
	mustWrite(w, uint64(m.Kind), kindBits)
	mustWrite(w, m.Addr, c.addrBits)
	mustWrite(w, uint64(m.Nonce), nonceBits)
	bits := w.Len()
	w.Align()
	return w.Bytes(), bits, nil
}

// decode splits a frame into either a control message or an inner data
// frame. Exactly one of ctrl/data is meaningful, per isControl.
func (c codec) decode(p []byte) (ctrl Control, data []byte, isControl bool, err error) {
	r := bitio.NewReader(p)
	demux, err := r.ReadBits(1)
	if err != nil {
		return Control{}, nil, false, fmt.Errorf("%w: empty frame", ErrBadControl)
	}
	if demux == demuxData {
		// The data frame sits behind the demux bit, shifted off byte
		// boundaries; UnwrapBit shifts it back.
		_, data, _ = frame.UnwrapBit(p)
		return Control{}, data, false, nil
	}
	kind, err := r.ReadBits(kindBits)
	if err != nil {
		return Control{}, nil, true, fmt.Errorf("%w: %v", ErrBadControl, err)
	}
	addr, err := r.ReadBits(c.addrBits)
	if err != nil {
		return Control{}, nil, true, fmt.Errorf("%w: %v", ErrBadControl, err)
	}
	nonce, err := r.ReadBits(nonceBits)
	if err != nil {
		return Control{}, nil, true, fmt.Errorf("%w: %v", ErrBadControl, err)
	}
	if kind < MsgClaim || kind > MsgAnnounce {
		return Control{}, nil, true, fmt.Errorf("%w: kind %d", ErrBadControl, kind)
	}
	return Control{Kind: int(kind), Addr: addr, Nonce: uint16(nonce)}, nil, true, nil
}

func mustWrite(w *bitio.Writer, v uint64, n int) {
	if err := w.WriteBits(v, n); err != nil {
		panic(err)
	}
}
