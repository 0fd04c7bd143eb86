package frame

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"
)

func TestStaticIntroRoundTrip(t *testing.T) {
	c := StaticCodec{AddrBits: 16, SeqBits: 16}
	in := StaticIntro{Src: 0xABCD, Seq: 77, TotalLen: 80, Checksum: 0xF00D}
	buf, bits, err := c.EncodeIntro(in)
	if err != nil {
		t.Fatalf("EncodeIntro: %v", err)
	}
	if want := 1 + 16 + 16 + 16 + 16; bits != want {
		t.Errorf("intro bits = %d, want %d", bits, want)
	}
	gi, err := c.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	want := StaticFragment{Intro: true, Src: in.Src, Seq: in.Seq, TotalLen: in.TotalLen, Checksum: in.Checksum}
	if !reflect.DeepEqual(gi, want) {
		t.Errorf("round trip: got %+v, want %+v", gi, want)
	}
}

func TestStaticDataRoundTrip(t *testing.T) {
	c := StaticCodec{AddrBits: 48, SeqBits: 16}
	d := StaticData{Src: 0xDEADBEEFCAFE, Seq: 3, Offset: 40, Payload: []byte{9, 8, 7}}
	buf, _, err := c.EncodeData(d)
	if err != nil {
		t.Fatal(err)
	}
	gd, err := c.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if gd.Intro {
		t.Fatalf("Decode returned %+v, want a data fragment", gd)
	}
	if gd.Src != d.Src || gd.Seq != d.Seq || gd.Offset != d.Offset || !bytes.Equal(gd.Payload, d.Payload) {
		t.Errorf("round trip: got %+v, want %+v", gd, d)
	}
}

func TestStaticHeaderCostExceedsAFF(t *testing.T) {
	// The comparison at the heart of the paper: a 9-bit AFF identifier vs
	// a 16-bit (or wider) static address plus sequence number.
	aff := AFFCodec{IDBits: 9}
	st := StaticCodec{AddrBits: 16, SeqBits: 16}
	if aff.DataHeaderBits() >= st.DataHeaderBits() {
		t.Errorf("AFF header (%d bits) should be smaller than static header (%d bits)",
			aff.DataHeaderBits(), st.DataHeaderBits())
	}
	if aff.MaxPayload(27) <= st.MaxPayload(27) {
		t.Errorf("AFF payload (%d) should exceed static payload (%d) at MTU 27",
			aff.MaxPayload(27), st.MaxPayload(27))
	}
}

func TestStaticValidation(t *testing.T) {
	tests := []struct {
		name string
		c    StaticCodec
		run  func(c StaticCodec) error
	}{
		{"addr width 0", StaticCodec{AddrBits: 0, SeqBits: 16}, func(c StaticCodec) error {
			_, _, err := c.EncodeIntro(StaticIntro{})
			return err
		}},
		{"addr width 65", StaticCodec{AddrBits: 65, SeqBits: 16}, func(c StaticCodec) error {
			_, _, err := c.EncodeIntro(StaticIntro{})
			return err
		}},
		{"seq width 0", StaticCodec{AddrBits: 16, SeqBits: 0}, func(c StaticCodec) error {
			_, _, err := c.EncodeIntro(StaticIntro{})
			return err
		}},
		{"src too wide", StaticCodec{AddrBits: 8, SeqBits: 16}, func(c StaticCodec) error {
			_, _, err := c.EncodeIntro(StaticIntro{Src: 256})
			return err
		}},
		{"seq too wide", StaticCodec{AddrBits: 8, SeqBits: 8}, func(c StaticCodec) error {
			_, _, err := c.EncodeData(StaticData{Seq: 256, Payload: []byte{1}})
			return err
		}},
		{"empty payload", StaticCodec{AddrBits: 8, SeqBits: 8}, func(c StaticCodec) error {
			_, _, err := c.EncodeData(StaticData{})
			return err
		}},
		{"bad offset", StaticCodec{AddrBits: 8, SeqBits: 8}, func(c StaticCodec) error {
			_, _, err := c.EncodeData(StaticData{Offset: -2, Payload: []byte{1}})
			return err
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.run(tt.c); !errors.Is(err, ErrBadField) {
				t.Errorf("err = %v, want ErrBadField", err)
			}
		})
	}
}

func TestStaticDecodeTruncated(t *testing.T) {
	c := StaticCodec{AddrBits: 32, SeqBits: 16}
	buf, _, err := c.EncodeIntro(StaticIntro{Src: 9, Seq: 9, TotalLen: 9, Checksum: 9})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(buf); cut++ {
		if _, err := c.Decode(buf[:cut]); !errors.Is(err, ErrTruncated) {
			t.Errorf("Decode(%d bytes) err = %v, want ErrTruncated", cut, err)
		}
	}
}

func TestStatic64BitAddress(t *testing.T) {
	c := StaticCodec{AddrBits: 64, SeqBits: 16}
	src := ^uint64(0)
	buf, _, err := c.EncodeIntro(StaticIntro{Src: src, Seq: 1, TotalLen: 5, Checksum: 2})
	if err != nil {
		t.Fatal(err)
	}
	gi, err := c.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !gi.Intro || gi.Src != src {
		t.Errorf("64-bit src round trip = %x, want %x", gi.Src, src)
	}
}

func TestStaticRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 4))
		c := StaticCodec{AddrBits: int(rng.Uint64N(64)) + 1, SeqBits: int(rng.Uint64N(32)) + 1}
		var srcMask uint64 = ^uint64(0)
		if c.AddrBits < 64 {
			srcMask = 1<<uint(c.AddrBits) - 1
		}
		d := StaticData{
			Src:     rng.Uint64() & srcMask,
			Seq:     rng.Uint64N(uint64(1) << uint(c.SeqBits)),
			Offset:  int(rng.Uint64N(MaxPacketLen + 1)),
			Payload: []byte{byte(rng.Uint64()), byte(rng.Uint64())},
		}
		buf, _, err := c.EncodeData(d)
		if err != nil {
			return false
		}
		gd, err := c.Decode(buf)
		if err != nil {
			return false
		}
		return !gd.Intro && gd.Src == d.Src && gd.Seq == d.Seq && gd.Offset == d.Offset &&
			bytes.Equal(gd.Payload, d.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
