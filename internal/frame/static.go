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

// StaticFragment is one decoded statically addressed fragment, held by
// value; see Fragment.
type StaticFragment struct {
	// Intro marks an introduction; otherwise the fragment carries data.
	Intro    bool
	Src      uint64
	Seq      uint64
	TotalLen int    // introduction only
	Checksum uint16 // introduction only
	Offset   int    // data only
	// Payload aliases the decoded frame (data only).
	Payload []byte
}

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

// Decode parses one fragment. Like AFFCodec.Decode it allocates
// nothing: the result is a value and its Payload aliases p.
func (c StaticCodec) Decode(p []byte) (StaticFragment, error) {
	if err := c.validate(); err != nil {
		return StaticFragment{}, err
	}
	r := bitio.NewReader(p)
	kind, err := r.ReadBits(kindBits)
	if err != nil {
		return StaticFragment{}, truncated(err)
	}
	f := StaticFragment{Intro: kind == kindIntro}
	if f.Src, err = r.ReadBits(c.AddrBits); err != nil {
		return StaticFragment{}, truncated(err)
	}
	if f.Seq, err = r.ReadBits(c.SeqBits); err != nil {
		return StaticFragment{}, truncated(err)
	}
	if f.Intro {
		total, err := r.ReadBits(lenBits)
		if err != nil {
			return StaticFragment{}, truncated(err)
		}
		sum, err := r.ReadBits(checksumBits)
		if err != nil {
			return StaticFragment{}, truncated(err)
		}
		f.TotalLen, f.Checksum = int(total), uint16(sum)
		return f, nil
	}
	off, err := r.ReadBits(offsetBits)
	if err != nil {
		return StaticFragment{}, truncated(err)
	}
	f.Offset = int(off)
	if f.Payload, err = readPayload(r, p); err != nil {
		return StaticFragment{}, err
	}
	return f, nil
}
