// Package frame defines the on-air wire formats.
//
// The AFF format is the paper's Section 5 fragment layout: a packet
// introduction carrying the random identifier, total length and checksum,
// followed by data fragments carrying the identifier and a byte offset. No
// fragment carries a source or destination address — that is the design.
//
// The static format is the baseline the paper compares against: every
// fragment carries the sender's statically allocated unique address plus a
// per-sender sequence number, forming a guaranteed-unique packet key
// exactly as IP fragmentation does with (source address, identification).
//
// Both formats are packed with bit precision: an H-bit identifier costs H
// bits on air, not a rounded-up byte. Encoders return the meaningful bit
// count alongside the byte buffer so the radio layer can price airtime and
// energy honestly.
//
// For the Figure 4 methodology, both formats can carry an instrumentation
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

	// MaxIDBits is the widest identifier either AFF format can carry.
	MaxIDBits = 32
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
// identifier, total length, and checksum" (Section 5).
type Intro struct {
	ID       uint64
	TotalLen int
	Checksum uint16
	Truth    *Truth
	// IDBits is the identifier width the fragment was decoded with. It is
	// set only by in-band-width codecs (InBandWidth); fixed-width decodes
	// leave it 0, meaning "the codec's configured width".
	IDBits int
}

// Data is a data fragment: the identifier plus "the byte offset of the
// data it carries" (Section 5).
type Data struct {
	ID      uint64
	Offset  int
	Payload []byte
	Truth   *Truth
	// IDBits is the decoded identifier width; see Intro.IDBits.
	IDBits int
}

// Piece returns the fragment's byte offset and payload.
func (d *Data) Piece() (int, []byte) { return d.Offset, d.Payload }

// AFFCodec encodes and decodes address-free fragments with IDBits-wide
// identifiers. Instrument appends the Truth trailer to every fragment.
//
// InBandWidth switches to the adaptive-width wire format: a 5-bit field
// after the kind bit carries the identifier width (stored as IDBits-1),
// and the identifier that follows is exactly that many bits. Encoding
// still uses the codec's IDBits — an adaptive fragmenter builds one codec
// per transaction at the width its controller chose — while decoding
// trusts the in-band field, so one receiver codec demuxes a mix of widths.
// With InBandWidth unset the wire format is bit-for-bit the original.
type AFFCodec struct {
	IDBits      int
	Instrument  bool
	InBandWidth bool
}

// IntroBits returns the meaningful bit length of an introduction fragment.
func (c AFFCodec) IntroBits() int {
	return kindBits + c.widthOverhead() + c.IDBits + lenBits + checksumBits + c.truthOverhead()
}

// DataHeaderBits returns the meaningful bit length of a data fragment's
// header, excluding payload.
func (c AFFCodec) DataHeaderBits() int {
	return kindBits + c.widthOverhead() + c.IDBits + offsetBits + c.truthOverhead()
}

func (c AFFCodec) widthOverhead() int {
	if c.InBandWidth {
		return widthBits
	}
	return 0
}

// MaxPayload returns the number of data bytes that fit in one data
// fragment under the given MTU (in bytes), or 0 if none fit.
func (c AFFCodec) MaxPayload(mtu int) int {
	headerBytes := (c.DataHeaderBits() + 7) / 8
	if mtu <= headerBytes {
		return 0
	}
	return mtu - headerBytes
}

func (c AFFCodec) truthOverhead() int {
	if c.Instrument {
		return truthBits + truthGuardBits
	}
	return 0
}

func (c AFFCodec) validate() error {
	if c.IDBits < 1 || c.IDBits > 32 {
		return fmt.Errorf("%w: identifier width %d", ErrBadField, c.IDBits)
	}
	return nil
}

// EncodeIntro serializes an introduction fragment, returning the frame
// bytes and the count of meaningful bits.
func (c AFFCodec) EncodeIntro(in Intro) ([]byte, int, error) {
	if err := c.validate(); err != nil {
		return nil, 0, err
	}
	if in.ID >= 1<<uint(c.IDBits) {
		return nil, 0, fmt.Errorf("%w: id %d exceeds %d bits", ErrBadField, in.ID, c.IDBits)
	}
	if in.TotalLen < 0 || in.TotalLen > MaxPacketLen {
		return nil, 0, fmt.Errorf("%w: total length %d", ErrBadField, in.TotalLen)
	}
	w := getWriter()
	mustWrite(w, kindIntro, kindBits)
	c.writeWidth(w)
	mustWrite(w, in.ID, c.IDBits)
	mustWrite(w, uint64(in.TotalLen), lenBits)
	mustWrite(w, uint64(in.Checksum), checksumBits)
	writeTruth(w, c.Instrument, in.Truth)
	bits := w.Len()
	w.Align()
	return seal(w), bits, nil
}

// EncodeData serializes a data fragment, returning the frame bytes and the
// count of meaningful bits. The payload begins at the next byte boundary
// after the header.
func (c AFFCodec) EncodeData(d Data) ([]byte, int, error) {
	if err := c.validate(); err != nil {
		return nil, 0, err
	}
	if d.ID >= 1<<uint(c.IDBits) {
		return nil, 0, fmt.Errorf("%w: id %d exceeds %d bits", ErrBadField, d.ID, c.IDBits)
	}
	if d.Offset < 0 || d.Offset > MaxPacketLen {
		return nil, 0, fmt.Errorf("%w: offset %d", ErrBadField, d.Offset)
	}
	if len(d.Payload) == 0 {
		return nil, 0, fmt.Errorf("%w: empty data fragment", ErrBadField)
	}
	w := getWriter()
	mustWrite(w, kindData, kindBits)
	c.writeWidth(w)
	mustWrite(w, d.ID, c.IDBits)
	mustWrite(w, uint64(d.Offset), offsetBits)
	writeTruth(w, c.Instrument, d.Truth)
	w.Align()
	w.WriteBytes(d.Payload)
	bits := w.Len()
	return seal(w), bits, nil
}

// Decode parses a fragment. It returns *Intro or *Data.
func (c AFFCodec) Decode(p []byte) (any, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	r := bitio.NewReader(p)
	kind, err := r.ReadBits(kindBits)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	idBits, decodedWidth, err := c.readWidth(r)
	if err != nil {
		return nil, err
	}
	id, err := r.ReadBits(idBits)
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
		truth, err := readTruth(r, c.Instrument)
		if err != nil {
			return nil, err
		}
		return &Intro{ID: id, TotalLen: int(total), Checksum: uint16(sum), Truth: truth, IDBits: decodedWidth}, nil
	default: // kindData; a 1-bit field has no other values
		off, err := r.ReadBits(offsetBits)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		truth, err := readTruth(r, c.Instrument)
		if err != nil {
			return nil, err
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
		return &Data{ID: id, Offset: int(off), Payload: payload, Truth: truth, IDBits: decodedWidth}, nil
	}
}

// writeWidth emits the in-band width field (IDBits-1) when enabled.
func (c AFFCodec) writeWidth(w *bitio.Writer) {
	if c.InBandWidth {
		mustWrite(w, uint64(c.IDBits-1), widthBits)
	}
}

// readWidth returns the identifier width to decode with. In fixed mode it
// is the codec's own width and the reported decoded width is 0; in in-band
// mode the width is read off the wire (always 1..32 — every 5-bit value
// plus one is a legal width) and reported back to the caller.
func (c AFFCodec) readWidth(r *bitio.Reader) (idBits, decodedWidth int, err error) {
	if !c.InBandWidth {
		return c.IDBits, 0, nil
	}
	v, err := r.ReadBits(widthBits)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	return int(v) + 1, int(v) + 1, nil
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
// trailer decodes as nil — "unauditable" — never as a wrong identity.
func readTruth(r *bitio.Reader, on bool) (*Truth, error) {
	if !on {
		return nil, nil
	}
	node, err := r.ReadBits(32)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	seq, err := r.ReadBits(32)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	guard, err := r.ReadBits(truthGuardBits)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	if uint8(guard) != truthGuard(uint32(node), uint32(seq)) {
		return nil, nil
	}
	return &Truth{Node: uint32(node), Seq: uint32(seq)}, nil
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
