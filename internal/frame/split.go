package frame

import (
	"fmt"

	"retri/internal/poison"
)

// Encoded is one encoded radio frame of a transaction.
type Encoded struct {
	// Bytes is the encoded frame.
	Bytes []byte
	// Bits is the number of meaningful bits (airtime/energy accounting).
	Bits int
}

// CheckPacket reports whether a packet can be fragmented: it must be
// non-empty and within the 64 KiB the length field can announce.
func CheckPacket(packet []byte) error {
	if len(packet) == 0 {
		return ErrEmptyPacket
	}
	if len(packet) > MaxPacketLen {
		return fmt.Errorf("%w: %d bytes", ErrPacketTooLarge, len(packet))
	}
	return nil
}

// CheckMTU reports whether the codec's field widths are valid and both
// fragment kinds fit an MTU of mtu bytes: a data fragment with at least
// one payload byte, and an introduction.
func (c Codec) CheckMTU(mtu int) error {
	if err := c.validate(); err != nil {
		return err
	}
	if c.MaxPayload(mtu) <= 0 {
		return fmt.Errorf("%w: %d bytes", ErrMTUTooSmall, mtu)
	}
	if n := (c.IntroBits() + 7) / 8; n > mtu {
		return fmt.Errorf("%w: intro needs %d bytes", ErrMTUTooSmall, n)
	}
	return nil
}

// Frames is the reusable storage Split encodes one transaction into: the
// frame list, and one arena holding every frame's bytes back to back.
// The zero value is ready to use. The frames of one Split alias it and
// stay valid until the next Split into the same Frames.
type Frames struct {
	list  []Encoded
	arena []byte
}

// Split fragments packet under one (id, seq) key into dst: an
// introduction announcing the packet's length and checksum sum, then
// data fragments of up to MaxPayload(mtu) bytes in offset order. Every
// fragment carries truth when the codec is instrumented. In the paper's
// terms, the frames are one transaction. The packet should have passed
// CheckPacket. Once dst has held a transaction as large, Split allocates
// nothing.
func (c Codec) Split(dst *Frames, packet []byte, mtu int, id, seq uint64, sum uint16, truth *Truth) ([]Encoded, error) {
	maxPayload := c.MaxPayload(mtu)
	if maxPayload <= 0 {
		return nil, fmt.Errorf("%w: %d bytes", ErrMTUTooSmall, mtu)
	}
	nData := (len(packet) + maxPayload - 1) / maxPayload
	size := (c.IntroBits()+7)/8 + nData*((c.DataHeaderBits()+7)/8) + len(packet)
	poison.Fill(dst.arena[:cap(dst.arena)])
	if cap(dst.arena) < size {
		// Eight spare bytes let the bit writer store even the last
		// frame's header a word at a time.
		dst.arena = make([]byte, 0, size+8)
	}
	// Each frame's slice is capped at its own end, so appending to one
	// cannot overwrite the next.
	frames := dst.list[:0]
	arena, bits, err := c.AppendIntro(dst.arena[:0], Intro{ID: id, Seq: seq, TotalLen: len(packet), Checksum: sum, Truth: truth})
	if err != nil {
		return nil, fmt.Errorf("encode intro: %w", err)
	}
	frames = append(frames, Encoded{Bytes: arena[:len(arena):len(arena)], Bits: bits})
	for off := 0; off < len(packet); off += maxPayload {
		end := min(off+maxPayload, len(packet))
		start := len(arena)
		arena, bits, err = c.AppendData(arena, Data{ID: id, Seq: seq, Offset: off, Payload: packet[off:end], Truth: truth})
		if err != nil {
			return nil, fmt.Errorf("encode data at %d: %w", off, err)
		}
		frames = append(frames, Encoded{Bytes: arena[start:len(arena):len(arena)], Bits: bits})
	}
	dst.list, dst.arena = frames, arena
	return frames, nil
}
