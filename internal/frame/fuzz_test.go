package frame

import (
	"bytes"
	"testing"
)

// affCodec maps fuzzed parameters onto a valid AFF codec: no sequence
// field and a 1- to 32-bit identifier. Valid widths map to themselves.
func affCodec(idBits int, instrument bool) Codec {
	return Codec{IDBits: wrap(idBits-1, MaxIDBits) + 1, Instrument: instrument}
}

// staticCodec maps fuzzed widths onto a valid static codec: a 1- to
// 64-bit address and a 1- to 32-bit sequence. Valid widths map to
// themselves.
func staticCodec(addrBits, seqBits int) Codec {
	return Codec{IDBits: wrap(addrBits-1, maxAddrBits) + 1, SeqBits: wrap(seqBits-1, maxSeqBits) + 1}
}

// wrap reduces v into [0, n).
func wrap(v, n int) int { return ((v % n) + n) % n }

// FuzzAFFDecode: the AFF decoder must never panic on arbitrary bytes, and
// anything it does decode must re-encode to an equivalent fragment.
func FuzzAFFDecode(f *testing.F) {
	c := Codec{IDBits: 9}
	seedIntro, _, _ := c.AppendIntro(nil, Intro{ID: 5, TotalLen: 80, Checksum: 0xAB})
	seedData, _, _ := c.AppendData(nil, Data{ID: 5, Offset: 20, Payload: []byte{1, 2, 3}})
	f.Add(seedIntro, 9, false)
	f.Add(seedData, 9, false)
	f.Add([]byte{}, 1, true)
	f.Add([]byte{0xFF, 0xFF, 0xFF}, 32, true)

	f.Fuzz(func(t *testing.T, p []byte, idBits int, instrument bool) {
		checkDecode(t, affCodec(idBits, instrument), p)
	})
}

// FuzzStaticDecode: the same contract for the statically addressed
// format, a codec with a sequence field.
func FuzzStaticDecode(f *testing.F) {
	c := Codec{IDBits: 16, SeqBits: 16}
	seedIntro, _, _ := c.AppendIntro(nil, Intro{ID: 7, Seq: 3, TotalLen: 10, Checksum: 1})
	seedData, _, _ := c.AppendData(nil, Data{ID: 7, Seq: 3, Offset: 0, Payload: []byte{9}})
	f.Add(seedIntro, 16, 16)
	f.Add(seedData, 16, 16)
	f.Add([]byte{0x00}, 48, 16)

	f.Fuzz(func(t *testing.T, p []byte, addrBits, seqBits int) {
		checkDecode(t, staticCodec(addrBits, seqBits), p)
	})
}

// checkDecode is the decode contract both decode targets hold c to:
// whatever c decodes from p re-encodes and decodes back to the same
// fragment.
func checkDecode(t *testing.T, c Codec, p []byte) {
	fr, err := c.Decode(p)
	if err != nil {
		return
	}
	buf, err := reencode(c, fr)
	if err != nil {
		t.Fatalf("decoded fragment failed to re-encode: %v (%+v)", err, fr)
	}
	re, err := c.Decode(buf)
	if err != nil {
		t.Fatalf("re-decode: %v", err)
	}
	if re.ID != fr.ID || re.Seq != fr.Seq {
		t.Fatalf("key round trip drift: %+v vs %+v", fr, re)
	}
	if fr.Intro {
		if !re.Intro || re.TotalLen != fr.TotalLen || re.Checksum != fr.Checksum {
			t.Fatalf("intro round trip drift: %+v vs %+v", fr, re)
		}
	} else if re.Intro || re.Offset != fr.Offset || !bytes.Equal(re.Payload, fr.Payload) {
		t.Fatalf("data round trip drift: %+v vs %+v", fr, re)
	}
}

// reencode encodes a decoded fragment again, trailer included.
func reencode(c Codec, f Fragment) ([]byte, error) {
	var truth *Truth
	if f.HasTruth {
		truth = &f.Truth
	}
	if f.Intro {
		buf, _, err := c.AppendIntro(nil, Intro{ID: f.ID, Seq: f.Seq, TotalLen: f.TotalLen, Checksum: f.Checksum, Truth: truth})
		return buf, err
	}
	buf, _, err := c.AppendData(nil, Data{ID: f.ID, Seq: f.Seq, Offset: f.Offset, Payload: f.Payload, Truth: truth})
	return buf, err
}

// FuzzAFFBitFlip models the channel-corruption threat directly at the
// codec: take a well-formed frame, flip one fuzz-chosen bit, and require
// the decoder to either reject it or produce a fragment that still
// satisfies the re-encode round trip. Whatever survives here is caught
// one layer up by the packet checksum (see the node-level corruption
// test); the codec's own duty is merely to never panic or drift.
func FuzzAFFBitFlip(f *testing.F) {
	f.Add(uint64(5), 80, uint16(0xAB), 20, []byte{1, 2, 3}, 9, uint(0))
	f.Add(uint64(511), 1, uint16(0), 0, []byte{}, 9, uint(13))
	f.Add(uint64(1), 300, uint16(0xFFFF), 299, []byte{0xFF}, 32, uint(77))

	f.Fuzz(func(t *testing.T, id uint64, totalLen int, sum uint16, offset int, payload []byte, idBits int, flip uint) {
		checkBitFlip(t, affCodec(idBits, false), id, 0, totalLen, sum, offset, payload, flip)
	})
}

// FuzzStaticBitFlip: the same single-bit-corruption contract for the
// statically addressed format.
func FuzzStaticBitFlip(f *testing.F) {
	f.Add(uint64(7), uint64(3), 10, uint16(1), 0, []byte{9}, uint(0), 16, 16)
	f.Add(uint64(0xFFFF), uint64(0xFFFF), 300, uint16(0xFFFF), 299, []byte{}, uint(50), 16, 16)

	f.Fuzz(func(t *testing.T, src, seq uint64, totalLen int, sum uint16, offset int, payload []byte, flip uint, addrBits, seqBits int) {
		checkBitFlip(t, staticCodec(addrBits, seqBits), src, seq, totalLen, sum, offset, payload, flip)
	})
}

// checkBitFlip encodes an intro and a data frame from the fuzzed fields,
// reduced to what c can carry, flips bit flip of each, and requires c to
// reject the result or decode it to a fragment that round-trips.
func checkBitFlip(t *testing.T, c Codec, id, seq uint64, totalLen int, sum uint16, offset int, payload []byte, flip uint) {
	id &= mask(c.IDBits)
	seq &= mask(c.SeqBits)
	totalLen = wrap(totalLen, MaxPacketLen)
	offset = wrap(offset, MaxPacketLen)

	check := func(buf []byte) {
		if len(buf) == 0 {
			return
		}
		mut := append([]byte(nil), buf...)
		bit := int(flip) % (8 * len(mut))
		mut[bit/8] ^= 1 << uint(bit%8)
		fr, err := c.Decode(mut)
		if err != nil {
			return // rejected: fine
		}
		re, err := reencode(c, fr)
		if err != nil {
			t.Fatalf("decoded corrupt fragment failed to re-encode: %v (%+v)", err, fr)
		}
		if !fr.Intro {
			return
		}
		back, err := c.Decode(re)
		if err != nil {
			t.Fatalf("re-decode of corrupt intro: %v", err)
		}
		if !back.Intro || back.ID != fr.ID || back.Seq != fr.Seq || back.TotalLen != fr.TotalLen || back.Checksum != fr.Checksum {
			t.Fatalf("corrupt intro round trip drift: %+v vs %+v", fr, back)
		}
	}

	if buf, _, err := c.AppendIntro(nil, Intro{ID: id, Seq: seq, TotalLen: totalLen, Checksum: sum}); err == nil {
		check(buf)
	}
	if buf, _, err := c.AppendData(nil, Data{ID: id, Seq: seq, Offset: offset, Payload: payload}); err == nil {
		check(buf)
	}
}
