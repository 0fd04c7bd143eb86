package dynaddr

import (
	"testing"

	"retri/internal/frame"
)

// FuzzDecode: the demux/control decoder must never panic, and any control
// message it accepts must re-encode to an equivalent frame.
func FuzzDecode(f *testing.F) {
	c := codec{addrBits: 10}
	claim, _, _ := c.encodeControl(Control{Kind: MsgClaim, Addr: 5, Nonce: 9})
	data, _ := frame.WrapBit(nil, demuxData, []byte{1, 2, 3}, 24)
	f.Add(claim, 10)
	f.Add(data, 10)
	f.Add([]byte{}, 4)
	f.Add([]byte{0xFF}, 64)

	f.Fuzz(func(t *testing.T, p []byte, addrBits int) {
		b := ((addrBits % 64) + 64) % 64
		if b == 0 {
			b = 1
		}
		c := codec{addrBits: b}
		ctrl, _, isControl, err := c.decode(nil, p)
		if err != nil || !isControl {
			return
		}
		buf, _, err := c.encodeControl(ctrl)
		if err != nil {
			t.Fatalf("decoded control failed to re-encode: %v (%+v)", err, ctrl)
		}
		again, _, ok, err := c.decode(nil, buf)
		if err != nil || !ok || again != ctrl {
			t.Fatalf("control round trip drift: %+v vs %+v (%v)", ctrl, again, err)
		}
	})
}
