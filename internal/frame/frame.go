// Package frame defines the on-air wire formats and the fragmenting
// steps both fragmentation services share.
//
// One Codec covers both of the paper's formats, which differ only in how
// a fragment names its transaction. The AFF format is the paper's Section
// 5 fragment layout: a packet introduction carrying the random
// identifier, total length and checksum, followed by data fragments
// carrying the identifier and a byte offset. No fragment carries a source
// or destination address — that is the design. The static format is the
// baseline the paper compares against: the identifier field holds the
// sender's statically allocated unique address and a sequence field
// follows it, forming a guaranteed-unique packet key exactly as IP
// fragmentation does with (source address, identification). A codec with
// SeqBits above zero speaks the static format.
//
// Both formats are packed with bit precision: an H-bit identifier costs H
// bits on air, not a rounded-up byte. Encoders return the meaningful bit
// count alongside the bytes so the radio layer can price airtime and
// energy honestly. They append to storage the caller passes in, so a
// caller that reuses it encodes without allocating. Split turns a packet
// into its introduction and data frames under one key, in a Frames the
// caller owns; the services around it only choose the key.
//
// For the Figure 4 methodology, fragments can carry an instrumentation
// trailer with the simulation's ground-truth (node, sequence) pair. The
// reassembler under test never reads it; only the measurement harness does
// (Section 5.1: "the fragment format is augmented to include this
// identifier along with the randomly selected AFF identifier").
package frame

import (
	"errors"
	"fmt"

	"retri/internal/bitio"
)

// Field widths shared by both formats.
const (
	kindBits       = 1
	lenBits        = 16 // packets up to 64 KiB, the paper's driver limit
	checksumBits   = 16
	offsetBits     = 16
	truthBits      = 64 // 32-bit node + 32-bit sequence, instrumentation only
	truthGuardBits = 8  // XOR-fold guard over the trailer, instrumentation only
	widthBits      = 5  // in-band identifier width, stored as IDBits-1 (1..32)

	// MaxPacketLen is the largest packet either format can describe.
	MaxPacketLen = 1<<lenBits - 1

	// MaxIDBits is the widest AFF identifier: the cap for a codec without
	// a sequence field, and for any codec with the in-band width field.
	MaxIDBits = 32
	// maxAddrBits and maxSeqBits bound the static format's address and
	// sequence fields.
	maxAddrBits = 64
	maxSeqBits  = 32
)

// Fragment kinds on the wire.
const (
	kindIntro = 0
	kindData  = 1
)

var (
	// ErrTruncated is returned when a frame is too short for its own
	// header.
	ErrTruncated = errors.New("frame: truncated frame")
	// ErrBadField is returned when a field value cannot be encoded.
	ErrBadField = errors.New("frame: field out of range")
	// ErrEmptyPacket is returned for zero-length packets.
	ErrEmptyPacket = errors.New("frame: empty packet")
	// ErrPacketTooLarge is returned for packets beyond MaxPacketLen, the
	// paper's 64 KiB limit.
	ErrPacketTooLarge = errors.New("frame: packet exceeds 64KiB limit")
	// ErrMTUTooSmall is returned when a fragment header leaves no room in
	// the MTU.
	ErrMTUTooSmall = errors.New("frame: MTU too small for fragment header")
)

// Truth is the instrumentation trailer: simulation ground truth identifying
// the true sender and packet. It exists so the harness can count packets
// that would have been lost to identifier collisions (Section 5.1); the
// protocol under test must never consult it.
type Truth struct {
	Node uint32
	Seq  uint32
}

// Intro is a packet-introduction fragment: "containing the packet's AFF
// identifier, total length, and checksum" (Section 5). In the static
// format ID is the sender's address and Seq its packet sequence number.
type Intro struct {
	ID       uint64
	Seq      uint64
	TotalLen int
	Checksum uint16
	Truth    *Truth
}

// Data is a data fragment: the identifier plus "the byte offset of the
// data it carries" (Section 5).
type Data struct {
	ID      uint64
	Seq     uint64
	Offset  int
	Payload []byte
	Truth   *Truth
}

// Fragment is one decoded fragment, an introduction or a data fragment,
// held by value so that decoding allocates nothing.
type Fragment struct {
	// Intro marks an introduction; otherwise the fragment carries data.
	Intro bool
	ID    uint64
	// Seq is the static format's sequence number; 0 in the AFF format.
	Seq uint64
	// IDBits is the identifier width the fragment was decoded with. It is
	// set only by in-band-width codecs (InBandWidth); fixed-width decodes
	// leave it 0, meaning "the codec's configured width".
	IDBits int
	// TotalLen and Checksum are an introduction's announcement.
	TotalLen int
	Checksum uint16
	// Offset and Payload are a data fragment's bytes and where they sit
	// in the packet. Payload aliases the decoded frame: copy it to keep it
	// past the frame's lifetime.
	Offset  int
	Payload []byte
	// Truth is the instrumentation trailer, present when HasTruth: the
	// codec is instrumented and the trailer's guard held.
	Truth    Truth
	HasTruth bool
}

// Codec encodes and decodes fragments with IDBits-wide identifiers.
// Instrument appends the Truth trailer to every fragment.
//
// SeqBits above zero selects the static format: a SeqBits-wide sequence
// field follows the identifier, which then holds a 1- to 64-bit address.
// SeqBits 0 is the AFF format, whose identifiers are at most MaxIDBits.
//
// InBandWidth switches to the adaptive-width wire format: a 5-bit field
// after the kind bit carries the identifier width (stored as IDBits-1),
// and the identifier that follows is exactly that many bits. Encoding
// still uses the codec's IDBits — an adaptive fragmenter builds one codec
// per transaction at the width its controller chose — while decoding
// trusts the in-band field, so one receiver codec demuxes a mix of widths.
// With InBandWidth unset the wire format is bit-for-bit the original.
//
// The layout is [kind][width?][id][seq?][len+checksum | offset][trailer?].
type Codec struct {
	IDBits      int
	SeqBits     int
	Instrument  bool
	InBandWidth bool
}

// AFFCodec is Codec's name from before it covered the static format,
// kept because the benchmark module (bench/) still builds codecs by it.
type AFFCodec = Codec

// IntroBits returns the meaningful bit length of an introduction fragment.
func (c Codec) IntroBits() int {
	return c.keyBits() + lenBits + checksumBits + c.truthOverhead()
}

// DataHeaderBits returns the meaningful bit length of a data fragment's
// header, excluding payload.
func (c Codec) DataHeaderBits() int {
	return c.keyBits() + offsetBits + c.truthOverhead()
}

// keyBits is the header before the kind-specific fields: the kind bit,
// the in-band width, the identifier and the sequence number.
func (c Codec) keyBits() int {
	n := kindBits + c.IDBits + c.SeqBits
	if c.InBandWidth {
		n += widthBits
	}
	return n
}

// MaxPayload returns the number of data bytes that fit in one data
// fragment under the given MTU (in bytes), or 0 if none fit.
func (c Codec) MaxPayload(mtu int) int {
	headerBytes := (c.DataHeaderBits() + 7) / 8
	if mtu <= headerBytes {
		return 0
	}
	return mtu - headerBytes
}

func (c Codec) truthOverhead() int {
	if c.Instrument {
		return truthBits + truthGuardBits
	}
	return 0
}

func (c Codec) validate() error {
	maxID := MaxIDBits
	if c.SeqBits > 0 && !c.InBandWidth {
		maxID = maxAddrBits
	}
	if c.IDBits < 1 || c.IDBits > maxID {
		return fmt.Errorf("%w: identifier width %d", ErrBadField, c.IDBits)
	}
	if c.SeqBits < 0 || c.SeqBits > maxSeqBits {
		return fmt.Errorf("%w: sequence width %d", ErrBadField, c.SeqBits)
	}
	return nil
}

// checkKey validates the codec and that id and seq fit their fields.
func (c Codec) checkKey(id, seq uint64) error {
	if err := c.validate(); err != nil {
		return err
	}
	if !fits(id, c.IDBits) {
		return fmt.Errorf("%w: id %d exceeds %d bits", ErrBadField, id, c.IDBits)
	}
	if !fits(seq, c.SeqBits) {
		return fmt.Errorf("%w: sequence %d exceeds %d bits", ErrBadField, seq, c.SeqBits)
	}
	return nil
}

// fits reports whether v fits in an n-bit field.
func fits(v uint64, n int) bool { return n >= 64 || v < 1<<uint(n) }

// AppendIntro appends an encoded introduction fragment to dst, returning
// the extended slice and the count of meaningful bits. It allocates only
// when dst lacks the capacity; dst's spare capacity is scratch (see
// bitio.AppendTo).
func (c Codec) AppendIntro(dst []byte, in Intro) ([]byte, int, error) {
	if err := c.checkKey(in.ID, in.Seq); err != nil {
		return dst, 0, err
	}
	if in.TotalLen < 0 || in.TotalLen > MaxPacketLen {
		return dst, 0, fmt.Errorf("%w: total length %d", ErrBadField, in.TotalLen)
	}
	w := bitio.AppendTo(dst)
	c.writeKey(&w, kindIntro, in.ID, in.Seq)
	mustWrite(&w, uint64(in.TotalLen), lenBits)
	mustWrite(&w, uint64(in.Checksum), checksumBits)
	writeTruth(&w, c.Instrument, in.Truth)
	bits := w.Len()
	w.Align()
	return w.Bytes(), bits, nil
}

// AppendData appends an encoded data fragment to dst, returning the
// extended slice and the count of meaningful bits. The payload begins at
// the next byte boundary after the header. It allocates only when dst
// lacks the capacity; dst's spare capacity is scratch (see
// bitio.AppendTo).
func (c Codec) AppendData(dst []byte, d Data) ([]byte, int, error) {
	if err := c.checkKey(d.ID, d.Seq); err != nil {
		return dst, 0, err
	}
	if d.Offset < 0 || d.Offset > MaxPacketLen {
		return dst, 0, fmt.Errorf("%w: offset %d", ErrBadField, d.Offset)
	}
	if len(d.Payload) == 0 {
		return dst, 0, fmt.Errorf("%w: empty data fragment", ErrBadField)
	}
	w := bitio.AppendTo(dst)
	c.writeKey(&w, kindData, d.ID, d.Seq)
	mustWrite(&w, uint64(d.Offset), offsetBits)
	writeTruth(&w, c.Instrument, d.Truth)
	w.Align()
	w.WriteBytes(d.Payload)
	return w.Bytes(), w.Len(), nil
}

// Decode parses one fragment. It allocates nothing: the result is a
// value and its Payload aliases p.
func (c Codec) Decode(p []byte) (Fragment, error) {
	if err := c.validate(); err != nil {
		return Fragment{}, err
	}
	r := bitio.NewReader(p)
	kind, err := r.ReadBits(kindBits)
	if err != nil {
		return Fragment{}, truncated(err)
	}
	f := Fragment{Intro: kind == kindIntro}
	idBits := c.IDBits
	if c.InBandWidth {
		v, err := r.ReadBits(widthBits)
		if err != nil {
			return Fragment{}, truncated(err)
		}
		// Every 5-bit value plus one is a legal width, 1..32.
		idBits = int(v) + 1
		f.IDBits = idBits
	}
	if f.ID, err = r.ReadBits(idBits); err != nil {
		return Fragment{}, truncated(err)
	}
	if c.SeqBits > 0 {
		if f.Seq, err = r.ReadBits(c.SeqBits); err != nil {
			return Fragment{}, truncated(err)
		}
	}
	if f.Intro {
		total, err := r.ReadBits(lenBits)
		if err != nil {
			return Fragment{}, truncated(err)
		}
		sum, err := r.ReadBits(checksumBits)
		if err != nil {
			return Fragment{}, truncated(err)
		}
		f.TotalLen, f.Checksum = int(total), uint16(sum)
	} else { // kindData; a 1-bit field has no other values
		off, err := r.ReadBits(offsetBits)
		if err != nil {
			return Fragment{}, truncated(err)
		}
		f.Offset = int(off)
	}
	if f.Truth, f.HasTruth, err = readTruth(r, c.Instrument); err != nil {
		return Fragment{}, err
	}
	if !f.Intro {
		if f.Payload, err = readPayload(r, p); err != nil {
			return Fragment{}, err
		}
	}
	return f, nil
}

// writeKey emits the header every fragment starts with: the kind bit, the
// in-band width field (IDBits-1) when enabled, the identifier, and the
// sequence number when the codec has one.
func (c Codec) writeKey(w *bitio.Writer, kind, id, seq uint64) {
	mustWrite(w, kind, kindBits)
	if c.InBandWidth {
		mustWrite(w, uint64(c.IDBits-1), widthBits)
	}
	mustWrite(w, id, c.IDBits)
	if c.SeqBits > 0 {
		mustWrite(w, seq, c.SeqBits)
	}
}

func writeTruth(w *bitio.Writer, on bool, t *Truth) {
	if !on {
		return
	}
	var node, seq uint32
	if t != nil {
		node, seq = t.Node, t.Seq
	}
	mustWrite(w, uint64(node), 32)
	mustWrite(w, uint64(seq), 32)
	mustWrite(w, uint64(truthGuard(node, seq)), truthGuardBits)
}

// readTruth parses the instrumentation trailer. The trailer sits outside
// the packet checksum's coverage, so a channel error here would otherwise
// forge ground truth and make a perfectly good delivery look misdelivered
// to the oracle. The guard byte detects any single-bit damage; a damaged
// trailer decodes as absent — "unauditable" — never as a wrong identity.
func readTruth(r *bitio.Reader, on bool) (Truth, bool, error) {
	if !on {
		return Truth{}, false, nil
	}
	node, err := r.ReadBits(32)
	if err != nil {
		return Truth{}, false, truncated(err)
	}
	seq, err := r.ReadBits(32)
	if err != nil {
		return Truth{}, false, truncated(err)
	}
	guard, err := r.ReadBits(truthGuardBits)
	if err != nil {
		return Truth{}, false, truncated(err)
	}
	if uint8(guard) != truthGuard(uint32(node), uint32(seq)) {
		return Truth{}, false, nil
	}
	return Truth{Node: uint32(node), Seq: uint32(seq)}, true, nil
}

// readPayload returns a data fragment's payload: every whole byte after
// the header's byte boundary, aliasing p. An empty payload is truncation.
func readPayload(r *bitio.Reader, p []byte) ([]byte, error) {
	r.Align()
	if r.Remaining() < 8 {
		return nil, fmt.Errorf("%w: data fragment with no payload", ErrTruncated)
	}
	return p[r.Offset()/8:], nil
}

// truncated wraps a bit-reader error as ErrTruncated.
func truncated(err error) error {
	return fmt.Errorf("%w: %v", ErrTruncated, err)
}

// truthGuard folds the trailer into one byte. An XOR fold flips exactly
// one guard bit for any single flipped trailer bit, so every single-bit
// error is caught; the constant keeps an all-zero trailer from carrying an
// all-zero (trivially forgeable) guard.
func truthGuard(node, seq uint32) uint8 {
	v := node ^ seq
	v ^= v >> 16
	v ^= v >> 8
	return uint8(v) ^ 0xA5
}

// mustWrite panics on a width programming error; all widths in this
// package are compile-time constants or validated first.
func mustWrite(w *bitio.Writer, v uint64, n int) {
	if err := w.WriteBits(v, n); err != nil {
		panic(err)
	}
}
