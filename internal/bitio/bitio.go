// Package bitio implements bit-granular serialization.
//
// RETRI identifiers are sized in bits (typically 1-32), not bytes, and the
// paper's efficiency model prices every transmitted bit. All wire formats in
// this repository are therefore packed with bit precision using this package.
//
// Bits are packed MSB-first: the first bit written becomes the most
// significant bit of the first byte. This matches conventional network
// bit ordering and makes hex dumps readable.
package bitio

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Bit-width limits for a single Read/Write call.
const (
	// MaxBits is the widest field a single ReadBits/WriteBits call handles.
	MaxBits = 64
)

var (
	// ErrShortBuffer is returned by a Reader when fewer bits remain than
	// were requested.
	ErrShortBuffer = errors.New("bitio: read past end of buffer")
)

// Writer accumulates bits into a growing byte buffer.
//
// The zero value is ready to use.
type Writer struct {
	buf   []byte
	nbits int
}

// NewWriter returns an empty Writer.
func NewWriter() *Writer { return &Writer{} }

// WriteBits appends the low n bits of v, MSB-first. n must be in [0, 64].
func (w *Writer) WriteBits(v uint64, n int) error {
	if n < 0 || n > MaxBits {
		return fmt.Errorf("bitio: WriteBits width %d out of range [0, %d]", n, MaxBits)
	}
	if n < 64 {
		v &= (uint64(1) << uint(n)) - 1
	}
	for n > 0 {
		if w.nbits%8 == 0 {
			w.buf = append(w.buf, 0)
		}
		free := 8 - w.nbits%8
		take := free
		if n < take {
			take = n
		}
		chunk := byte(v>>uint(n-take)) & byte((1<<uint(take))-1)
		w.buf[len(w.buf)-1] |= chunk << uint(free-take)
		w.nbits += take
		n -= take
	}
	return nil
}

// WriteBool appends a single bit.
func (w *Writer) WriteBool(b bool) {
	v := uint64(0)
	if b {
		v = 1
	}
	// A 1-bit write cannot fail.
	_ = w.WriteBits(v, 1)
}

// WriteBytes appends p one byte at a time, preserving the current bit offset.
func (w *Writer) WriteBytes(p []byte) {
	if w.nbits%8 == 0 {
		// Fast path: byte-aligned.
		w.buf = append(w.buf, p...)
		w.nbits += 8 * len(p)
		return
	}
	for _, b := range p {
		_ = w.WriteBits(uint64(b), 8)
	}
}

// Align pads with zero bits to the next byte boundary. It is a no-op when
// already aligned.
func (w *Writer) Align() {
	if rem := w.nbits % 8; rem != 0 {
		_ = w.WriteBits(0, 8-rem)
	}
}

// Len reports the number of bits written so far.
func (w *Writer) Len() int { return w.nbits }

// Bytes returns the packed buffer. Trailing bits of the final byte are zero.
// The returned slice aliases the Writer's internal buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset clears the writer for reuse, retaining the allocated buffer.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.nbits = 0
}

// Reader consumes bits from a byte slice, MSB-first.
type Reader struct {
	buf []byte
	pos int // in bits
}

// NewReader returns a Reader over p. The Reader does not copy p.
func NewReader(p []byte) *Reader { return &Reader{buf: p} }

// ReadBits consumes n bits and returns them right-aligned in a uint64.
// n must be in [0, 64].
//
// The bytes the field spans are gathered MSB-first into one word, the
// bits before the field are shifted off the top, and the field is
// shifted down from there. Only a field wider than 56 bits that starts
// mid-byte spans a ninth byte, whose leading bits are ORed in below.
func (r *Reader) ReadBits(n int) (uint64, error) {
	if n < 0 || n > MaxBits {
		return 0, fmt.Errorf("bitio: ReadBits width %d out of range [0, %d]", n, MaxBits)
	}
	if n > r.Remaining() {
		return 0, fmt.Errorf("%w: want %d bits, have %d", ErrShortBuffer, n, r.Remaining())
	}
	i, skip := r.pos/8, uint(r.pos%8)
	var w uint64
	if tail := r.buf[i:]; len(tail) >= 8 {
		w = binary.BigEndian.Uint64(tail)
	} else {
		for k, b := range tail[:(int(skip)+n+7)/8] {
			w |= uint64(b) << (56 - 8*uint(k))
		}
	}
	w <<= skip
	if skip+uint(n) > 64 {
		w |= uint64(r.buf[i+8]) >> (8 - skip)
	}
	r.pos += n
	// A shift by 64 yields 0, which is the right answer for n == 0.
	return w >> (64 - uint(n)), nil
}

// ReadBool consumes a single bit.
func (r *Reader) ReadBool() (bool, error) {
	v, err := r.ReadBits(1)
	return v == 1, err
}

// ReadBytes fills p with len(p) bytes read at the current bit offset.
func (r *Reader) ReadBytes(p []byte) error {
	if 8*len(p) > r.Remaining() {
		return fmt.Errorf("%w: want %d bytes, have %d bits", ErrShortBuffer, len(p), r.Remaining())
	}
	if r.pos%8 == 0 {
		start := r.pos / 8
		copy(p, r.buf[start:start+len(p)])
		r.pos += 8 * len(p)
		return nil
	}
	for i := range p {
		v, err := r.ReadBits(8)
		if err != nil {
			return err
		}
		p[i] = byte(v)
	}
	return nil
}

// Align skips to the next byte boundary. It is a no-op when already aligned.
func (r *Reader) Align() {
	if rem := r.pos % 8; rem != 0 {
		r.pos += 8 - rem
	}
}

// Remaining reports the number of unread bits.
func (r *Reader) Remaining() int { return 8*len(r.buf) - r.pos }

// Offset reports the current position in bits from the start of the buffer.
func (r *Reader) Offset() int { return r.pos }

// BitsFor reports the minimum number of bits needed to represent v
// (at least 1, so BitsFor(0) == 1).
func BitsFor(v uint64) int {
	n := 1
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
