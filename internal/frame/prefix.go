package frame

// WrapBit appends to dst a frame of bits meaningful bits behind a
// one-bit prefix, the discriminator a stack uses to share one radio
// between fragments and its own messages. The frame's bytes shift one
// bit right, and the prefix is charged as one more header bit.
func WrapBit(dst []byte, bit uint64, p []byte, bits int) ([]byte, int) {
	carry := byte(bit&1) << 7
	for _, b := range p {
		dst = append(dst, carry|b>>1)
		carry = b << 7
	}
	return append(dst, carry), 1 + bits
}

// UnwrapBit undoes WrapBit: it returns the prefix bit and appends to dst
// the whole bytes behind it, shifted back onto byte boundaries. ok is
// false for an empty frame.
func UnwrapBit(dst, p []byte) (bit uint64, inner []byte, ok bool) {
	if len(p) == 0 {
		return 0, dst, false
	}
	for i := 1; i < len(p); i++ {
		dst = append(dst, p[i-1]<<1|p[i]>>7)
	}
	return uint64(p[0] >> 7), dst, true
}
