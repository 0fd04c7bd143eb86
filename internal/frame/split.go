package frame

import "fmt"

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

// Split fragments packet under one (id, seq) key: an introduction
// announcing the packet's length and checksum sum, then data fragments of
// up to MaxPayload(mtu) bytes in offset order. Every fragment carries
// truth when the codec is instrumented. In the paper's terms, the frames
// are one transaction. The packet should have passed CheckPacket.
func (c Codec) Split(packet []byte, mtu int, id, seq uint64, sum uint16, truth *Truth) ([]Encoded, error) {
	maxPayload := c.MaxPayload(mtu)
	if maxPayload <= 0 {
		return nil, fmt.Errorf("%w: %d bytes", ErrMTUTooSmall, mtu)
	}
	frames := make([]Encoded, 0, 1+(len(packet)+maxPayload-1)/maxPayload)
	buf, bits, err := c.EncodeIntro(Intro{ID: id, Seq: seq, TotalLen: len(packet), Checksum: sum, Truth: truth})
	if err != nil {
		return nil, fmt.Errorf("encode intro: %w", err)
	}
	frames = append(frames, Encoded{Bytes: buf, Bits: bits})
	for off := 0; off < len(packet); off += maxPayload {
		end := min(off+maxPayload, len(packet))
		buf, bits, err := c.EncodeData(Data{ID: id, Seq: seq, Offset: off, Payload: packet[off:end], Truth: truth})
		if err != nil {
			return nil, fmt.Errorf("encode data at %d: %w", off, err)
		}
		frames = append(frames, Encoded{Bytes: buf, Bits: bits})
	}
	return frames, nil
}
