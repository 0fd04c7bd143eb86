package frame

import (
	"bytes"
	"errors"
	"testing"

	"retri/internal/bitio"
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
	var dst Frames // one Frames for both formats: the second Split reuses it
	for _, tt := range []struct {
		c   Codec
		seq uint64
	}{{Codec{IDBits: 9, Instrument: true}, 0}, {Codec{IDBits: 16, SeqBits: 16}, 3}} {
		c := tt.c
		frames, err := c.Split(&dst, packet, 27, 5, tt.seq, 0xBEEF, truth)
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
	var dst Frames
	if _, err := c.Split(&dst, []byte{1}, 2, 1, 0, 0, nil); !errors.Is(err, ErrMTUTooSmall) {
		t.Errorf("tiny MTU err = %v, want ErrMTUTooSmall", err)
	}
	if _, err := c.Split(&dst, []byte{1}, 27, 16, 0, 0, nil); !errors.Is(err, ErrBadField) {
		t.Errorf("oversize id err = %v, want ErrBadField", err)
	}
}

// TestSplitReusesFrames splits into one warmed Frames again and again: it
// allocates nothing, and each transaction's frames encode exactly what a
// fresh Frames would hold, so no byte of the previous one survives.
func TestSplitReusesFrames(t *testing.T) {
	c := Codec{IDBits: 9, Instrument: true}
	packets := [][]byte{bytes.Repeat([]byte{0xAA}, 80), bytes.Repeat([]byte{0x55}, 30)}
	var dst Frames
	n := 0
	split := func() {
		p := packets[n%len(packets)]
		frames, err := c.Split(&dst, p, 27, uint64(n%512), 0, uint16(n), &Truth{Node: 1, Seq: uint32(n)})
		if err != nil {
			t.Fatal(err)
		}
		var fresh Frames
		want, _ := c.Split(&fresh, p, 27, uint64(n%512), 0, uint16(n), &Truth{Node: 1, Seq: uint32(n)})
		if len(frames) != len(want) {
			t.Fatalf("split %d: %d frames, want %d", n, len(frames), len(want))
		}
		for i := range want {
			if !bytes.Equal(frames[i].Bytes, want[i].Bytes) || frames[i].Bits != want[i].Bits {
				t.Fatalf("split %d frame %d: %x (%d bits), want %x (%d bits)",
					n, i, frames[i].Bytes, frames[i].Bits, want[i].Bytes, want[i].Bits)
			}
		}
		n++
	}
	for i := 0; i < 4; i++ {
		split()
	}
	reuse := func() {
		if _, err := c.Split(&dst, packets[0], 27, 5, 0, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, reuse); allocs != 0 {
		t.Errorf("Split into a warmed Frames: %.1f allocations, want 0", allocs)
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

// TestWrapBit pins the prefixed bytes against a bit writer putting the
// prefix bit in front of the frame, and round-trips them, appending to a
// non-empty dst each way.
func TestWrapBit(t *testing.T) {
	inner := []byte{1, 2, 3, 4, 0xFF}
	head := []byte{0xEE}
	for _, bit := range []uint64{0, 1} {
		ref := bitio.NewWriter()
		mustWrite(ref, bit, 1)
		ref.WriteBytes(inner)
		wrapped, bits := WrapBit(head, bit, inner, 8*len(inner))
		if !bytes.Equal(wrapped[:1], head) || !bytes.Equal(wrapped[1:], ref.Bytes()) {
			t.Errorf("bit %d: wrapped %x, want %x after %x", bit, wrapped, ref.Bytes(), head)
		}
		if bits != 1+8*len(inner) {
			t.Errorf("bit %d: %d bits, want %d", bit, bits, 1+8*len(inner))
		}
		got, back, ok := UnwrapBit(head, wrapped[1:])
		if !ok || got != bit || !bytes.Equal(back[:1], head) || !bytes.Equal(back[1:], inner) {
			t.Errorf("bit %d: unwrap = (%d, %x, %v)", bit, got, back, ok)
		}
	}
	if _, _, ok := UnwrapBit(nil, nil); ok {
		t.Error("unwrap of an empty frame succeeded")
	}
}
