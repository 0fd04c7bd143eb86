package frame

import (
	"fmt"

	"retri/internal/bitio"
)

// StaticCodec encodes and decodes statically addressed fragments: the
// baseline design in which every fragment carries the sender's
// AddrBits-wide unique address and a SeqBits-wide per-sender packet
// sequence number. (Source address, sequence) is then a guaranteed-unique
// packet key, the role IP's (source address, identification) tuple plays
// in Section 2.1.
type StaticCodec struct {
	AddrBits int
	SeqBits  int
}

// DefaultSeqBits matches IP's 16-bit identification field.
const DefaultSeqBits = 16

// StaticIntro is the statically addressed introduction fragment.
type StaticIntro struct {
	Src      uint64
	Seq      uint64
	TotalLen int
	Checksum uint16
}

// StaticData is the statically addressed data fragment.
type StaticData struct {
	Src     uint64
	Seq     uint64
	Offset  int
	Payload []byte
}

// Piece returns the fragment's byte offset and payload.
func (d *StaticData) Piece() (int, []byte) { return d.Offset, d.Payload }

// IntroBits returns the meaningful bit length of an introduction fragment.
func (c StaticCodec) IntroBits() int {
	return kindBits + c.AddrBits + c.SeqBits + lenBits + checksumBits
}

// DataHeaderBits returns the meaningful bit length of a data fragment's
// header, excluding payload.
func (c StaticCodec) DataHeaderBits() int {
	return kindBits + c.AddrBits + c.SeqBits + offsetBits
}

// MaxPayload returns the data bytes that fit in one fragment under the MTU.
func (c StaticCodec) MaxPayload(mtu int) int {
	headerBytes := (c.DataHeaderBits() + 7) / 8
	if mtu <= headerBytes {
		return 0
	}
	return mtu - headerBytes
}

func (c StaticCodec) validate() error {
	if c.AddrBits < 1 || c.AddrBits > 64 {
		return fmt.Errorf("%w: address width %d", ErrBadField, c.AddrBits)
	}
	if c.SeqBits < 1 || c.SeqBits > 32 {
		return fmt.Errorf("%w: sequence width %d", ErrBadField, c.SeqBits)
	}
	return nil
}

func (c StaticCodec) checkKey(src, seq uint64) error {
	if c.AddrBits < 64 && src >= 1<<uint(c.AddrBits) {
		return fmt.Errorf("%w: source %d exceeds %d bits", ErrBadField, src, c.AddrBits)
	}
	if seq >= 1<<uint(c.SeqBits) {
		return fmt.Errorf("%w: sequence %d exceeds %d bits", ErrBadField, seq, c.SeqBits)
	}
	return nil
}

// EncodeIntro serializes an introduction fragment, returning the frame
// bytes and the count of meaningful bits.
func (c StaticCodec) EncodeIntro(in StaticIntro) ([]byte, int, error) {
	if err := c.validate(); err != nil {
		return nil, 0, err
	}
	if err := c.checkKey(in.Src, in.Seq); err != nil {
		return nil, 0, err
	}
	if in.TotalLen < 0 || in.TotalLen > MaxPacketLen {
		return nil, 0, fmt.Errorf("%w: total length %d", ErrBadField, in.TotalLen)
	}
	w := getWriter()
	mustWrite(w, kindIntro, kindBits)
	mustWrite(w, in.Src, c.AddrBits)
	mustWrite(w, in.Seq, c.SeqBits)
	mustWrite(w, uint64(in.TotalLen), lenBits)
	mustWrite(w, uint64(in.Checksum), checksumBits)
	bits := w.Len()
	w.Align()
	return seal(w), bits, nil
}

// EncodeData serializes a data fragment, returning the frame bytes and the
// count of meaningful bits.
func (c StaticCodec) EncodeData(d StaticData) ([]byte, int, error) {
	if err := c.validate(); err != nil {
		return nil, 0, err
	}
	if err := c.checkKey(d.Src, d.Seq); err != nil {
		return nil, 0, err
	}
	if d.Offset < 0 || d.Offset > MaxPacketLen {
		return nil, 0, fmt.Errorf("%w: offset %d", ErrBadField, d.Offset)
	}
	if len(d.Payload) == 0 {
		return nil, 0, fmt.Errorf("%w: empty data fragment", ErrBadField)
	}
	w := getWriter()
	mustWrite(w, kindData, kindBits)
	mustWrite(w, d.Src, c.AddrBits)
	mustWrite(w, d.Seq, c.SeqBits)
	mustWrite(w, uint64(d.Offset), offsetBits)
	w.Align()
	w.WriteBytes(d.Payload)
	bits := w.Len()
	return seal(w), bits, nil
}

// Decode parses a fragment, returning *StaticIntro or *StaticData.
func (c StaticCodec) Decode(p []byte) (any, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	r := bitio.NewReader(p)
	kind, err := r.ReadBits(kindBits)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	src, err := r.ReadBits(c.AddrBits)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	seq, err := r.ReadBits(c.SeqBits)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	switch kind {
	case kindIntro:
		total, err := r.ReadBits(lenBits)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		sum, err := r.ReadBits(checksumBits)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		return &StaticIntro{Src: src, Seq: seq, TotalLen: int(total), Checksum: uint16(sum)}, nil
	default:
		off, err := r.ReadBits(offsetBits)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		r.Align()
		n := r.Remaining() / 8
		if n == 0 {
			return nil, fmt.Errorf("%w: data fragment with no payload", ErrTruncated)
		}
		payload := make([]byte, n)
		if err := r.ReadBytes(payload); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		return &StaticData{Src: src, Seq: seq, Offset: int(off), Payload: payload}, nil
	}
}
