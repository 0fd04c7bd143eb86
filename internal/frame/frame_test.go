package frame

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"
)

// TestAFFIntroRoundTrip round-trips an introduction in both formats, the
// static one up to a 64-bit address.
func TestAFFIntroRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		c    Codec
		in   Intro
	}{
		{"aff 9", Codec{IDBits: 9}, Intro{ID: 0x1AB, TotalLen: 80, Checksum: 0xBEEF}},
		{"static 16/16", Codec{IDBits: 16, SeqBits: 16}, Intro{ID: 0xABCD, Seq: 77, TotalLen: 80, Checksum: 0xF00D}},
		{"static 64/16", Codec{IDBits: 64, SeqBits: 16}, Intro{ID: ^uint64(0), Seq: 1, TotalLen: 5, Checksum: 2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			buf, bits, err := tt.c.AppendIntro(nil, tt.in)
			if err != nil {
				t.Fatalf("AppendIntro: %v", err)
			}
			if want := 1 + tt.c.IDBits + tt.c.SeqBits + 16 + 16; bits != want {
				t.Errorf("intro bits = %d, want %d", bits, want)
			}
			if bits != tt.c.IntroBits() {
				t.Errorf("IntroBits() = %d, encoder produced %d", tt.c.IntroBits(), bits)
			}
			got, err := tt.c.Decode(buf)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			// A fixed-width decode leaves IDBits 0 and an uninstrumented
			// one reports no trailer.
			want := Fragment{Intro: true, ID: tt.in.ID, Seq: tt.in.Seq, TotalLen: tt.in.TotalLen, Checksum: tt.in.Checksum}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("round trip: got %+v, want %+v", got, want)
			}
		})
	}
}

// TestAFFDataRoundTrip round-trips a data fragment in both formats.
func TestAFFDataRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		c    Codec
		d    Data
	}{
		{"aff 9", Codec{IDBits: 9}, Data{ID: 5, Offset: 48, Payload: []byte("sensor reading")}},
		{"static 48/16", Codec{IDBits: 48, SeqBits: 16}, Data{ID: 0xDEADBEEFCAFE, Seq: 3, Offset: 40, Payload: []byte{9, 8, 7}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			buf, bits, err := tt.c.AppendData(nil, tt.d)
			if err != nil {
				t.Fatalf("AppendData: %v", err)
			}
			// The header aligns to a byte boundary, then the payload.
			wantBits := ((1+tt.c.IDBits+tt.c.SeqBits+16+7)/8)*8 + 8*len(tt.d.Payload)
			if bits != wantBits {
				t.Errorf("data bits = %d, want %d", bits, wantBits)
			}
			gd, err := tt.c.Decode(buf)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if gd.Intro {
				t.Fatalf("Decode returned %+v, want a data fragment", gd)
			}
			if gd.ID != tt.d.ID || gd.Seq != tt.d.Seq || gd.Offset != tt.d.Offset || !bytes.Equal(gd.Payload, tt.d.Payload) {
				t.Errorf("round trip: got %+v, want %+v", gd, tt.d)
			}
		})
	}
}

func TestAFFInstrumentedRoundTrip(t *testing.T) {
	c := Codec{IDBits: 4, Instrument: true}
	truth := &Truth{Node: 3, Seq: 41}
	buf, _, err := c.AppendIntro(nil, Intro{ID: 7, TotalLen: 80, Checksum: 1, Truth: truth})
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

	buf, _, err = c.AppendData(nil, Data{ID: 7, Offset: 16, Payload: []byte{1}, Truth: truth})
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
	c := Codec{IDBits: 4, Instrument: true}
	buf, _, err := c.AppendIntro(nil, Intro{ID: 1, TotalLen: 2, Checksum: 3})
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
	plain := Codec{IDBits: 9}
	inst := Codec{IDBits: 9, Instrument: true}
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
	c := Codec{IDBits: 4, Instrument: true}
	truth := &Truth{Node: 3, Seq: 41}
	buf, _, err := c.AppendData(nil, Data{ID: 7, Offset: 16, Payload: []byte{1, 2}, Truth: truth})
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
		c    Codec
		run  func(c Codec) error
	}{
		{"id too wide", Codec{IDBits: 4}, func(c Codec) error {
			_, _, err := c.AppendIntro(nil, Intro{ID: 16})
			return err
		}},
		{"bad codec width 0", Codec{IDBits: 0}, func(c Codec) error {
			_, _, err := c.AppendIntro(nil, Intro{})
			return err
		}},
		{"bad codec width 33", Codec{IDBits: 33}, func(c Codec) error {
			_, _, err := c.AppendData(nil, Data{Payload: []byte{1}})
			return err
		}},
		{"negative length", Codec{IDBits: 4}, func(c Codec) error {
			_, _, err := c.AppendIntro(nil, Intro{TotalLen: -1})
			return err
		}},
		{"length too large", Codec{IDBits: 4}, func(c Codec) error {
			_, _, err := c.AppendIntro(nil, Intro{TotalLen: MaxPacketLen + 1})
			return err
		}},
		{"negative offset", Codec{IDBits: 4}, func(c Codec) error {
			_, _, err := c.AppendData(nil, Data{Offset: -1, Payload: []byte{1}})
			return err
		}},
		{"empty payload", Codec{IDBits: 4}, func(c Codec) error {
			_, _, err := c.AppendData(nil, Data{})
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

// TestStaticValidation holds the limits of the static format: a 1- to
// 64-bit address (32 with the in-band width field) and a 1- to 32-bit
// sequence number, which only a codec with a sequence field may carry.
func TestStaticValidation(t *testing.T) {
	tests := []struct {
		name string
		c    Codec
		run  func(c Codec) error
	}{
		{"addr width 0", Codec{IDBits: 0, SeqBits: 16}, func(c Codec) error {
			_, _, err := c.AppendIntro(nil, Intro{})
			return err
		}},
		{"addr width 65", Codec{IDBits: 65, SeqBits: 16}, func(c Codec) error {
			_, _, err := c.AppendIntro(nil, Intro{})
			return err
		}},
		{"in-band addr width 33", Codec{IDBits: 33, SeqBits: 16, InBandWidth: true}, func(c Codec) error {
			_, _, err := c.AppendIntro(nil, Intro{})
			return err
		}},
		{"seq width 33", Codec{IDBits: 16, SeqBits: 33}, func(c Codec) error {
			_, _, err := c.AppendIntro(nil, Intro{})
			return err
		}},
		{"seq width negative", Codec{IDBits: 16, SeqBits: -1}, func(c Codec) error {
			_, err := c.Decode([]byte{0})
			return err
		}},
		{"src too wide", Codec{IDBits: 8, SeqBits: 16}, func(c Codec) error {
			_, _, err := c.AppendIntro(nil, Intro{ID: 256})
			return err
		}},
		{"seq too wide", Codec{IDBits: 8, SeqBits: 8}, func(c Codec) error {
			_, _, err := c.AppendData(nil, Data{Seq: 256, Payload: []byte{1}})
			return err
		}},
		{"seq without a seq field", Codec{IDBits: 8}, func(c Codec) error {
			_, _, err := c.AppendIntro(nil, Intro{Seq: 1})
			return err
		}},
		{"empty payload", Codec{IDBits: 8, SeqBits: 8}, func(c Codec) error {
			_, _, err := c.AppendData(nil, Data{})
			return err
		}},
		{"bad offset", Codec{IDBits: 8, SeqBits: 8}, func(c Codec) error {
			_, _, err := c.AppendData(nil, Data{Offset: -2, Payload: []byte{1}})
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

func TestStaticHeaderCostExceedsAFF(t *testing.T) {
	// The comparison at the heart of the paper: a 9-bit AFF identifier vs
	// a 16-bit (or wider) static address plus sequence number.
	aff := Codec{IDBits: 9}
	st := Codec{IDBits: 16, SeqBits: 16}
	if aff.DataHeaderBits() >= st.DataHeaderBits() {
		t.Errorf("AFF header (%d bits) should be smaller than static header (%d bits)",
			aff.DataHeaderBits(), st.DataHeaderBits())
	}
	if aff.MaxPayload(27) <= st.MaxPayload(27) {
		t.Errorf("AFF payload (%d) should exceed static payload (%d) at MTU 27",
			aff.MaxPayload(27), st.MaxPayload(27))
	}
}

func TestAFFDecodeTruncated(t *testing.T) {
	checkTruncated(t, Codec{IDBits: 9}, Intro{ID: 1, TotalLen: 100, Checksum: 0xAA})
}

func TestStaticDecodeTruncated(t *testing.T) {
	checkTruncated(t, Codec{IDBits: 32, SeqBits: 16}, Intro{ID: 9, Seq: 9, TotalLen: 9, Checksum: 9})
}

// checkTruncated requires every proper prefix of in's encoding to decode
// as ErrTruncated.
func checkTruncated(t *testing.T, c Codec, in Intro) {
	t.Helper()
	buf, _, err := c.AppendIntro(nil, in)
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
	c := Codec{IDBits: 7}
	buf, _, err := c.AppendData(nil, Data{ID: 1, Offset: 0, Payload: []byte{0xEE}})
	if err != nil {
		t.Fatal(err)
	}
	headerOnly := buf[:len(buf)-1]
	if _, err := c.Decode(headerOnly); !errors.Is(err, ErrTruncated) {
		t.Errorf("payload-less data fragment err = %v, want ErrTruncated", err)
	}
}

func TestAFFMaxPayload(t *testing.T) {
	c := Codec{IDBits: 9}
	// Header: 26 bits -> 4 bytes. 27-byte MTU leaves 23.
	if got := c.MaxPayload(27); got != 23 {
		t.Errorf("MaxPayload(27) = %d, want 23", got)
	}
	if got := c.MaxPayload(4); got != 0 {
		t.Errorf("MaxPayload(4) = %d, want 0", got)
	}
	// Instrumented header: 26 + 72 trailer bits -> 13 bytes.
	inst := Codec{IDBits: 9, Instrument: true}
	if got := inst.MaxPayload(27); got != 27-13 {
		t.Errorf("instrumented MaxPayload(27) = %d, want 14", got)
	}
}

// TestAFFRoundTripProperty fuzzes widths, offsets, payloads and the
// trailer over AFF codecs.
func TestAFFRoundTripProperty(t *testing.T) {
	roundTripProperty(t, 3, func(rng *rand.Rand) Codec {
		return Codec{IDBits: int(rng.Uint64N(MaxIDBits)) + 1, Instrument: rng.Uint64N(2) == 0}
	})
}

// TestStaticRoundTripProperty: the same property over static codecs, whose
// sequence field lets the address reach 64 bits.
func TestStaticRoundTripProperty(t *testing.T) {
	roundTripProperty(t, 4, func(rng *rand.Rand) Codec {
		return Codec{
			IDBits:     int(rng.Uint64N(maxAddrBits)) + 1,
			SeqBits:    int(rng.Uint64N(maxSeqBits)) + 1,
			Instrument: rng.Uint64N(2) == 0,
		}
	})
}

// roundTripProperty requires random intro and data fragments to survive
// an encode and decode under codecs drawn by pick, 300 seeds on PCG
// stream stream.
func roundTripProperty(t *testing.T, stream uint64, pick func(*rand.Rand) Codec) {
	t.Helper()
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, stream))
		c := pick(rng)
		id := rng.Uint64() & mask(c.IDBits)
		seq := rng.Uint64() & mask(c.SeqBits)
		payload := make([]byte, rng.Uint64N(20)+1)
		for i := range payload {
			payload[i] = byte(rng.Uint64())
		}
		truth := &Truth{Node: uint32(rng.Uint64()), Seq: uint32(rng.Uint64())}
		d := Data{ID: id, Seq: seq, Offset: int(rng.Uint64N(MaxPacketLen + 1)), Payload: payload, Truth: truth}
		buf, _, err := c.AppendData(nil, d)
		if err != nil {
			return false
		}
		gd, err := c.Decode(buf)
		if err != nil {
			return false
		}
		if gd.Intro || gd.ID != d.ID || gd.Seq != d.Seq || gd.Offset != d.Offset || !bytes.Equal(gd.Payload, d.Payload) {
			return false
		}
		if gd.HasTruth != c.Instrument || (c.Instrument && gd.Truth != *truth) {
			return false
		}
		in := Intro{ID: id, Seq: seq, TotalLen: int(rng.Uint64N(MaxPacketLen + 1)), Checksum: uint16(rng.Uint64()), Truth: truth}
		buf, _, err = c.AppendIntro(nil, in)
		if err != nil {
			return false
		}
		gi, err := c.Decode(buf)
		if err != nil {
			return false
		}
		return gi.Intro && gi.ID == in.ID && gi.Seq == in.Seq && gi.TotalLen == in.TotalLen && gi.Checksum == in.Checksum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// mask returns the values an n-bit field can hold, n in [0, 64].
func mask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

func TestAFFInBandWidthCostsBits(t *testing.T) {
	plain := Codec{IDBits: 9}
	adaptive := Codec{IDBits: 9, InBandWidth: true}
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
	rx := Codec{IDBits: MaxIDBits, InBandWidth: true}
	for _, w := range []int{1, 2, 5, 9, 16, 32} {
		tx := Codec{IDBits: w, InBandWidth: true}
		id := uint64(1)<<uint(w) - 1 // all-ones id exercises every bit
		buf, bits, err := tx.AppendIntro(nil, Intro{ID: id, TotalLen: 80, Checksum: 0xBEEF})
		if err != nil {
			t.Fatalf("width %d: AppendIntro: %v", w, err)
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

		buf, _, err = tx.AppendData(nil, Data{ID: id, Offset: 32, Payload: []byte{0xA5}})
		if err != nil {
			t.Fatalf("width %d: AppendData: %v", w, err)
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

// encodeVector encodes a wire vector's introduction and data frame.
func encodeVector(v wireVector) (intro, data wireFrame, err error) {
	c := Codec{IDBits: v.idBits, SeqBits: v.seqBits, Instrument: v.instrument, InBandWidth: v.inBand}
	buf, bits, err := c.AppendIntro(nil, Intro{ID: v.id, Seq: v.seq, TotalLen: vectorLen, Checksum: vectorSum, Truth: v.truth})
	if err != nil {
		return intro, data, err
	}
	intro = newWireFrame(buf, bits)
	buf, bits, err = c.AppendData(nil, Data{ID: v.id, Seq: v.seq, Offset: vectorOffset, Payload: vectorPayload, Truth: v.truth})
	return intro, newWireFrame(buf, bits), err
}

// TestDecodeAllocatesNothing holds the receive path of every format to
// zero heap allocations: fragments decode by value and payloads alias the
// frame.
func TestDecodeAllocatesNothing(t *testing.T) {
	truth := &Truth{Node: 3, Seq: 41}
	payload := []byte("sensor reading")
	for _, c := range []Codec{
		{IDBits: 9},
		{IDBits: 9, InBandWidth: true},
		{IDBits: 9, Instrument: true},
		{IDBits: 9, Instrument: true, InBandWidth: true},
		{IDBits: 16, SeqBits: 16},
	} {
		var seq uint64
		if c.SeqBits > 0 {
			seq = 3
		}
		intro, _, err := c.AppendIntro(nil, Intro{ID: 5, Seq: seq, TotalLen: 80, Checksum: 0xBEEF, Truth: truth})
		if err != nil {
			t.Fatal(err)
		}
		data, _, err := c.AppendData(nil, Data{ID: 5, Seq: seq, Offset: 40, Payload: payload, Truth: truth})
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
}

// BenchmarkAFFEncodeData encodes into one reused buffer, as the
// fragmenter's arena does: it allocates nothing.
func BenchmarkAFFEncodeData(b *testing.B) {
	c := Codec{IDBits: 9}
	payload := make([]byte, 20)
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _, _ = c.AppendData(buf[:0], Data{ID: 5, Offset: 40, Payload: payload})
	}
}

func BenchmarkAFFDecodeData(b *testing.B) {
	c := Codec{IDBits: 9}
	buf, _, _ := c.AppendData(nil, Data{ID: 5, Offset: 40, Payload: make([]byte, 20)})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = c.Decode(buf)
	}
}
