package node

import (
	"retri/internal/bitio"
	"retri/internal/frame"
)

// Frame discriminator values used only when the collision-notification
// extension is enabled. One bit distinguishes ordinary AFF fragments from
// notification frames; that bit is real header overhead and is counted as
// such.
const (
	discFragment     = 0
	discNotification = 1
)

// encodeNotification builds a collision-notification frame: the
// discriminator bit followed by a byte-aligned body carrying the collided
// identifier. The body is byte-aligned so that frame.UnwrapBit's
// byte-shifted extraction preserves it exactly.
func encodeNotification(id uint64, idBits int) ([]byte, int) {
	body := bitio.NewWriter()
	_ = body.WriteBits(id, idBits)
	body.Align()
	return frame.WrapBit(discNotification, body.Bytes(), idBits)
}

// decodeNotification extracts the identifier from an unwrapped
// notification body. The discriminator bit has already been consumed by
// frame.UnwrapBit, which byte-shifted the remainder, so the identifier
// starts at bit 0 of inner.
func decodeNotification(inner []byte, idBits int) (uint64, bool) {
	r := bitio.NewReader(inner)
	id, err := r.ReadBits(idBits)
	if err != nil {
		return 0, false
	}
	return id, true
}
