package frame

import "retri/internal/bitio"

// WrapBit puts a one-bit prefix in front of a frame of bits meaningful
// bits, the discriminator a stack uses to share one radio between
// fragments and its own messages. The frame's bytes shift one bit right,
// and the prefix is charged as one more header bit.
func WrapBit(bit uint64, p []byte, bits int) ([]byte, int) {
	w := bitio.NewWriter()
	mustWrite(w, bit, 1)
	w.WriteBytes(p)
	return w.Bytes(), 1 + bits
}

// UnwrapBit undoes WrapBit: it returns the prefix bit and a copy of the
// whole bytes behind it, shifted back onto byte boundaries. ok is false
// for an empty frame.
func UnwrapBit(p []byte) (bit uint64, inner []byte, ok bool) {
	r := bitio.NewReader(p)
	bit, err := r.ReadBits(1)
	if err != nil {
		return 0, nil, false
	}
	inner = make([]byte, r.Remaining()/8)
	_ = r.ReadBytes(inner) // cannot fail: inner holds only whole bytes left
	return bit, inner, true
}
