package frame

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestAFFIntroRoundTrip(t *testing.T) {
	c := AFFCodec{IDBits: 9}
	in := Intro{ID: 0x1AB, TotalLen: 80, Checksum: 0xBEEF}
	buf, bits, err := c.EncodeIntro(in)
	if err != nil {
		t.Fatalf("EncodeIntro: %v", err)
	}
	if want := 1 + 9 + 16 + 16; bits != want {
		t.Errorf("intro bits = %d, want %d", bits, want)
	}
	if bits != c.IntroBits() {
		t.Errorf("IntroBits() = %d, encoder produced %d", c.IntroBits(), bits)
	}
	gi, err := c.Decode(buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !gi.Intro {
		t.Fatalf("Decode returned %+v, want an introduction", gi)
	}
	if gi.ID != in.ID || gi.TotalLen != in.TotalLen || gi.Checksum != in.Checksum {
		t.Errorf("round trip: got %+v, want %+v", gi, in)
	}
	if gi.HasTruth {
		t.Error("uninstrumented decode produced a Truth trailer")
	}
}

func TestAFFDataRoundTrip(t *testing.T) {
	c := AFFCodec{IDBits: 9}
	d := Data{ID: 5, Offset: 48, Payload: []byte("sensor reading")}
	buf, bits, err := c.EncodeData(d)
	if err != nil {
		t.Fatalf("EncodeData: %v", err)
	}
	// Header 26 bits aligns to 32, plus payload.
	wantBits := ((1+9+16+7)/8)*8 + 8*len(d.Payload)
	if bits != wantBits {
		t.Errorf("data bits = %d, want %d", bits, wantBits)
	}
	gd, err := c.Decode(buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if gd.Intro {
		t.Fatalf("Decode returned %+v, want a data fragment", gd)
	}
	if gd.ID != d.ID || gd.Offset != d.Offset || !bytes.Equal(gd.Payload, d.Payload) {
		t.Errorf("round trip: got %+v, want %+v", gd, d)
	}
}

func TestAFFInstrumentedRoundTrip(t *testing.T) {
	c := AFFCodec{IDBits: 4, Instrument: true}
	truth := &Truth{Node: 3, Seq: 41}
	buf, _, err := c.EncodeIntro(Intro{ID: 7, TotalLen: 80, Checksum: 1, Truth: truth})
	if err != nil {
		t.Fatal(err)
	}
	gi, err := c.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !gi.Intro || !gi.HasTruth || gi.Truth != *truth {
		t.Errorf("intro = %+v, want truth %+v", gi, truth)
	}

	buf, _, err = c.EncodeData(Data{ID: 7, Offset: 16, Payload: []byte{1}, Truth: truth})
	if err != nil {
		t.Fatal(err)
	}
	gd, err := c.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if gd.Intro || !gd.HasTruth || gd.Truth != *truth {
		t.Errorf("data = %+v, want truth %+v", gd, truth)
	}
}

func TestAFFInstrumentNilTruthEncodesZero(t *testing.T) {
	c := AFFCodec{IDBits: 4, Instrument: true}
	buf, _, err := c.EncodeIntro(Intro{ID: 1, TotalLen: 2, Checksum: 3})
	if err != nil {
		t.Fatal(err)
	}
	gi, err := c.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !gi.HasTruth || gi.Truth != (Truth{}) {
		t.Errorf("nil truth should encode as zeros, got %+v", gi)
	}
}

func TestAFFInstrumentationCostsBits(t *testing.T) {
	plain := AFFCodec{IDBits: 9}
	inst := AFFCodec{IDBits: 9, Instrument: true}
	// 64 bits of (node, seq) ground truth plus the 8-bit trailer guard.
	if inst.IntroBits() != plain.IntroBits()+72 {
		t.Errorf("instrumented intro = %d bits, want %d", inst.IntroBits(), plain.IntroBits()+72)
	}
	if inst.DataHeaderBits() != plain.DataHeaderBits()+72 {
		t.Errorf("instrumented data header = %d bits, want %d", inst.DataHeaderBits(), plain.DataHeaderBits()+72)
	}
}

// TestAFFTruthGuardCatchesEveryBitFlip flips each trailer bit of an
// instrumented fragment in turn. The trailer is outside the packet
// checksum's coverage, so without its own guard a flip there would forge
// ground truth; with the guard every such fragment must decode with no
// (unauditable) Truth, never a wrong one.
func TestAFFTruthGuardCatchesEveryBitFlip(t *testing.T) {
	c := AFFCodec{IDBits: 4, Instrument: true}
	truth := &Truth{Node: 3, Seq: 41}
	buf, _, err := c.EncodeData(Data{ID: 7, Offset: 16, Payload: []byte{1, 2}, Truth: truth})
	if err != nil {
		t.Fatal(err)
	}
	trailerStart := c.DataHeaderBits() - (truthBits + truthGuardBits)
	for bit := trailerStart; bit < c.DataHeaderBits(); bit++ {
		damaged := append([]byte(nil), buf...)
		damaged[bit/8] ^= 0x80 >> uint(bit%8)
		gd, err := c.Decode(damaged)
		if err != nil {
			t.Fatalf("bit %d: decode failed: %v", bit, err)
		}
		if gd.HasTruth {
			t.Fatalf("bit %d: damaged trailer decoded as Truth %+v, want none", bit, gd.Truth)
		}
	}
	// Sanity: the clean frame still round-trips its truth.
	gd, err := c.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !gd.HasTruth || gd.Truth != *truth {
		t.Fatalf("clean frame truth = %+v, want %+v", gd.Truth, truth)
	}
}

func TestAFFEncodeValidation(t *testing.T) {
	tests := []struct {
		name string
		c    AFFCodec
		run  func(c AFFCodec) error
	}{
		{"id too wide", AFFCodec{IDBits: 4}, func(c AFFCodec) error {
			_, _, err := c.EncodeIntro(Intro{ID: 16})
			return err
		}},
		{"bad codec width 0", AFFCodec{IDBits: 0}, func(c AFFCodec) error {
			_, _, err := c.EncodeIntro(Intro{})
			return err
		}},
		{"bad codec width 33", AFFCodec{IDBits: 33}, func(c AFFCodec) error {
			_, _, err := c.EncodeData(Data{Payload: []byte{1}})
			return err
		}},
		{"negative length", AFFCodec{IDBits: 4}, func(c AFFCodec) error {
			_, _, err := c.EncodeIntro(Intro{TotalLen: -1})
			return err
		}},
		{"length too large", AFFCodec{IDBits: 4}, func(c AFFCodec) error {
			_, _, err := c.EncodeIntro(Intro{TotalLen: MaxPacketLen + 1})
			return err
		}},
		{"negative offset", AFFCodec{IDBits: 4}, func(c AFFCodec) error {
			_, _, err := c.EncodeData(Data{Offset: -1, Payload: []byte{1}})
			return err
		}},
		{"empty payload", AFFCodec{IDBits: 4}, func(c AFFCodec) error {
			_, _, err := c.EncodeData(Data{})
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

func TestAFFDecodeTruncated(t *testing.T) {
	c := AFFCodec{IDBits: 9}
	buf, _, err := c.EncodeIntro(Intro{ID: 1, TotalLen: 100, Checksum: 0xAA})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(buf); cut++ {
		if _, err := c.Decode(buf[:cut]); !errors.Is(err, ErrTruncated) {
			t.Errorf("Decode(%d/%d bytes) err = %v, want ErrTruncated", cut, len(buf), err)
		}
	}
}

func TestAFFDecodeEmptyDataPayload(t *testing.T) {
	// Craft a data fragment header with no payload bytes after alignment.
	c := AFFCodec{IDBits: 7}
	buf, _, err := c.EncodeData(Data{ID: 1, Offset: 0, Payload: []byte{0xEE}})
	if err != nil {
		t.Fatal(err)
	}
	headerOnly := buf[:len(buf)-1]
	if _, err := c.Decode(headerOnly); !errors.Is(err, ErrTruncated) {
		t.Errorf("payload-less data fragment err = %v, want ErrTruncated", err)
	}
}

func TestAFFMaxPayload(t *testing.T) {
	c := AFFCodec{IDBits: 9}
	// Header: 26 bits -> 4 bytes. 27-byte MTU leaves 23.
	if got := c.MaxPayload(27); got != 23 {
		t.Errorf("MaxPayload(27) = %d, want 23", got)
	}
	if got := c.MaxPayload(4); got != 0 {
		t.Errorf("MaxPayload(4) = %d, want 0", got)
	}
	// Instrumented header: 26 + 72 trailer bits -> 13 bytes.
	inst := AFFCodec{IDBits: 9, Instrument: true}
	if got := inst.MaxPayload(27); got != 27-13 {
		t.Errorf("instrumented MaxPayload(27) = %d, want 14", got)
	}
}

// TestAFFRoundTripProperty fuzzes id widths, offsets and payloads.
func TestAFFRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		c := AFFCodec{IDBits: int(rng.Uint64N(32)) + 1, Instrument: rng.Uint64N(2) == 0}
		id := rng.Uint64N(uint64(1) << uint(c.IDBits))
		payload := make([]byte, rng.Uint64N(20)+1)
		for i := range payload {
			payload[i] = byte(rng.Uint64())
		}
		truth := &Truth{Node: uint32(rng.Uint64()), Seq: uint32(rng.Uint64())}
		d := Data{ID: id, Offset: int(rng.Uint64N(MaxPacketLen + 1)), Payload: payload, Truth: truth}
		buf, _, err := c.EncodeData(d)
		if err != nil {
			return false
		}
		gd, err := c.Decode(buf)
		if err != nil {
			return false
		}
		if gd.Intro || gd.ID != d.ID || gd.Offset != d.Offset || !bytes.Equal(gd.Payload, d.Payload) {
			return false
		}
		if gd.HasTruth != c.Instrument || (c.Instrument && gd.Truth != *truth) {
			return false
		}
		in := Intro{ID: id, TotalLen: int(rng.Uint64N(MaxPacketLen + 1)), Checksum: uint16(rng.Uint64()), Truth: truth}
		buf, _, err = c.EncodeIntro(in)
		if err != nil {
			return false
		}
		gi, err := c.Decode(buf)
		if err != nil {
			return false
		}
		return gi.Intro && gi.ID == in.ID && gi.TotalLen == in.TotalLen && gi.Checksum == in.Checksum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAFFInBandWidthCostsBits(t *testing.T) {
	plain := AFFCodec{IDBits: 9}
	adaptive := AFFCodec{IDBits: 9, InBandWidth: true}
	if adaptive.IntroBits() != plain.IntroBits()+5 {
		t.Errorf("in-band intro = %d bits, want %d", adaptive.IntroBits(), plain.IntroBits()+5)
	}
	if adaptive.DataHeaderBits() != plain.DataHeaderBits()+5 {
		t.Errorf("in-band data header = %d bits, want %d", adaptive.DataHeaderBits(), plain.DataHeaderBits()+5)
	}
}

// TestAFFInBandWidthDemux is the adaptive-width contract: one receiver
// codec decodes fragments produced at any width, recovering both the
// identifier and the width it was sent at.
func TestAFFInBandWidthDemux(t *testing.T) {
	rx := AFFCodec{IDBits: MaxIDBits, InBandWidth: true}
	for _, w := range []int{1, 2, 5, 9, 16, 32} {
		tx := AFFCodec{IDBits: w, InBandWidth: true}
		id := uint64(1)<<uint(w) - 1 // all-ones id exercises every bit
		buf, bits, err := tx.EncodeIntro(Intro{ID: id, TotalLen: 80, Checksum: 0xBEEF})
		if err != nil {
			t.Fatalf("width %d: EncodeIntro: %v", w, err)
		}
		if bits != tx.IntroBits() {
			t.Errorf("width %d: intro bits = %d, want %d", w, bits, tx.IntroBits())
		}
		gi, err := rx.Decode(buf)
		if err != nil {
			t.Fatalf("width %d: Decode: %v", w, err)
		}
		if !gi.Intro {
			t.Fatalf("width %d: Decode returned %+v, want an introduction", w, gi)
		}
		if gi.ID != id || gi.IDBits != w {
			t.Errorf("width %d: decoded id=%d bits=%d, want id=%d bits=%d", w, gi.ID, gi.IDBits, id, w)
		}

		buf, _, err = tx.EncodeData(Data{ID: id, Offset: 32, Payload: []byte{0xA5}})
		if err != nil {
			t.Fatalf("width %d: EncodeData: %v", w, err)
		}
		d, err := rx.Decode(buf)
		if err != nil {
			t.Fatalf("width %d: Decode data: %v", w, err)
		}
		if d.Intro {
			t.Fatalf("width %d: Decode returned %+v, want a data fragment", w, d)
		}
		if d.ID != id || d.IDBits != w {
			t.Errorf("width %d: decoded data id=%d bits=%d, want id=%d bits=%d", w, d.ID, d.IDBits, id, w)
		}
	}
}

// TestAFFFixedWidthBytesUnchanged pins the original wire format: a codec
// without InBandWidth must emit exactly the bytes it always has, and its
// decodes must leave IDBits zero.
func TestAFFFixedWidthBytesUnchanged(t *testing.T) {
	c := AFFCodec{IDBits: 9}
	buf, bits, err := c.EncodeIntro(Intro{ID: 0x1AB, TotalLen: 80, Checksum: 0xBEEF})
	if err != nil {
		t.Fatal(err)
	}
	if bits != 1+9+16+16 {
		t.Errorf("fixed intro bits = %d, want 42", bits)
	}
	// kind=0, id=0x1AB (9 bits), len=80, sum=0xBEEF, packed MSB-first.
	want := []byte{0x6A, 0xC0, 0x14, 0x2F, 0xBB, 0xC0}
	if !bytes.Equal(buf, want) {
		t.Errorf("fixed intro bytes = %x, want %x", buf, want)
	}
	gi, err := c.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if gi.IDBits != 0 {
		t.Errorf("fixed decode set IDBits = %d, want 0", gi.IDBits)
	}
}

// TestDecodeAllocatesNothing holds both codecs' receive path to zero heap
// allocations: fragments decode by value and payloads alias the frame.
func TestDecodeAllocatesNothing(t *testing.T) {
	truth := &Truth{Node: 3, Seq: 41}
	payload := []byte("sensor reading")
	for _, c := range []AFFCodec{
		{IDBits: 9},
		{IDBits: 9, InBandWidth: true},
		{IDBits: 9, Instrument: true},
		{IDBits: 9, Instrument: true, InBandWidth: true},
	} {
		intro, _, err := c.EncodeIntro(Intro{ID: 5, TotalLen: 80, Checksum: 0xBEEF, Truth: truth})
		if err != nil {
			t.Fatal(err)
		}
		data, _, err := c.EncodeData(Data{ID: 5, Offset: 40, Payload: payload, Truth: truth})
		if err != nil {
			t.Fatal(err)
		}
		for _, buf := range [][]byte{intro, data} {
			var f Fragment
			if allocs := testing.AllocsPerRun(100, func() { f, err = c.Decode(buf) }); allocs != 0 || err != nil {
				t.Errorf("%+v: Decode made %.1f allocations (err %v), want 0", c, allocs, err)
			}
			if f.HasTruth != c.Instrument {
				t.Errorf("%+v: decoded %+v, trailer presence wrong", c, f)
			}
		}
	}
	st := StaticCodec{AddrBits: 16, SeqBits: 16}
	intro, _, err := st.EncodeIntro(StaticIntro{Src: 7, Seq: 3, TotalLen: 80, Checksum: 1})
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := st.EncodeData(StaticData{Src: 7, Seq: 3, Offset: 40, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	for _, buf := range [][]byte{intro, data} {
		if allocs := testing.AllocsPerRun(100, func() { _, err = st.Decode(buf) }); allocs != 0 || err != nil {
			t.Errorf("static: Decode made %.1f allocations (err %v), want 0", allocs, err)
		}
	}
}

func BenchmarkAFFEncodeData(b *testing.B) {
	c := AFFCodec{IDBits: 9}
	payload := make([]byte, 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _, _ = c.EncodeData(Data{ID: 5, Offset: 40, Payload: payload})
	}
}

func BenchmarkAFFDecodeData(b *testing.B) {
	c := AFFCodec{IDBits: 9}
	buf, _, _ := c.EncodeData(Data{ID: 5, Offset: 40, Payload: make([]byte, 20)})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = c.Decode(buf)
	}
}
