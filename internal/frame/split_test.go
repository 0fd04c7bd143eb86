package frame

import (
	"bytes"
	"errors"
	"testing"
)

// TestSplitCoversPacket splits an 80-byte packet in both formats and
// decodes every frame back: one introduction announcing the packet, then
// data fragments filling the MTU, in offset order, tiling the packet.
func TestSplitCoversPacket(t *testing.T) {
	packet := make([]byte, 80)
	for i := range packet {
		packet[i] = byte(i * 7)
	}
	truth := &Truth{Node: 2, Seq: 9}
	for _, tt := range []struct {
		c   Codec
		seq uint64
	}{{Codec{IDBits: 9, Instrument: true}, 0}, {Codec{IDBits: 16, SeqBits: 16}, 3}} {
		c := tt.c
		frames, err := c.Split(packet, 27, 5, tt.seq, 0xBEEF, truth)
		if err != nil {
			t.Fatalf("%+v: Split: %v", c, err)
		}
		perFrame := c.MaxPayload(27)
		if want := 1 + (len(packet)+perFrame-1)/perFrame; len(frames) != want {
			t.Fatalf("%+v: %d frames, want %d", c, len(frames), want)
		}
		var got []byte
		for i, fr := range frames {
			if len(fr.Bytes) > 27 {
				t.Errorf("%+v: frame %d is %d bytes, over the MTU", c, i, len(fr.Bytes))
			}
			f, err := c.Decode(fr.Bytes)
			if err != nil {
				t.Fatalf("%+v: frame %d: %v", c, i, err)
			}
			if f.ID != 5 || f.Seq != tt.seq || f.HasTruth != c.Instrument || (f.HasTruth && f.Truth != *truth) {
				t.Errorf("%+v: frame %d decoded as %+v", c, i, f)
			}
			switch {
			case i == 0:
				if !f.Intro || f.TotalLen != len(packet) || f.Checksum != 0xBEEF {
					t.Errorf("%+v: first frame %+v, want the introduction", c, f)
				}
			case f.Intro || f.Offset != len(got):
				t.Errorf("%+v: frame %d is %+v, want data at offset %d", c, i, f, len(got))
			default:
				got = append(got, f.Payload...)
			}
		}
		if !bytes.Equal(got, packet) {
			t.Errorf("%+v: data fragments carry %x, want %x", c, got, packet)
		}
	}
}

func TestSplitErrors(t *testing.T) {
	c := Codec{IDBits: 4}
	if _, err := c.Split([]byte{1}, 2, 1, 0, 0, nil); !errors.Is(err, ErrMTUTooSmall) {
		t.Errorf("tiny MTU err = %v, want ErrMTUTooSmall", err)
	}
	if _, err := c.Split([]byte{1}, 27, 16, 0, 0, nil); !errors.Is(err, ErrBadField) {
		t.Errorf("oversize id err = %v, want ErrBadField", err)
	}
}

func TestCheckPacket(t *testing.T) {
	if err := CheckPacket(nil); !errors.Is(err, ErrEmptyPacket) {
		t.Errorf("empty packet err = %v, want ErrEmptyPacket", err)
	}
	if err := CheckPacket(make([]byte, MaxPacketLen+1)); !errors.Is(err, ErrPacketTooLarge) {
		t.Errorf("oversize packet err = %v, want ErrPacketTooLarge", err)
	}
	if err := CheckPacket(make([]byte, MaxPacketLen)); err != nil {
		t.Errorf("64 KiB packet rejected: %v", err)
	}
}

func TestCheckMTU(t *testing.T) {
	// Instrumented, a 9-bit data header takes 13 bytes and an
	// introduction 15: at 14 bytes data fits but the introduction does not.
	c := Codec{IDBits: 9, Instrument: true}
	for _, tc := range []struct {
		mtu int
		ok  bool
	}{{13, false}, {14, false}, {15, true}} {
		err := c.CheckMTU(tc.mtu)
		if tc.ok != (err == nil) || (err != nil && !errors.Is(err, ErrMTUTooSmall)) {
			t.Errorf("CheckMTU(%d) = %v, want ok=%v", tc.mtu, err, tc.ok)
		}
	}
	if err := (Codec{IDBits: 16, SeqBits: 33}).CheckMTU(27); !errors.Is(err, ErrBadField) {
		t.Errorf("invalid codec CheckMTU = %v, want ErrBadField", err)
	}
}

func TestWrapBit(t *testing.T) {
	inner := []byte{1, 2, 3, 4, 5}
	for _, bit := range []uint64{0, 1} {
		wrapped, bits := WrapBit(bit, inner, 8*len(inner))
		if bits != 1+8*len(inner) {
			t.Errorf("bit %d: %d bits, want %d", bit, bits, 1+8*len(inner))
		}
		got, back, ok := UnwrapBit(wrapped)
		if !ok || got != bit || !bytes.Equal(back, inner) {
			t.Errorf("bit %d: unwrap = (%d, %x, %v)", bit, got, back, ok)
		}
	}
	if _, _, ok := UnwrapBit(nil); ok {
		t.Error("unwrap of an empty frame succeeded")
	}
}
