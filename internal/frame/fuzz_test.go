package frame

import (
	"bytes"
	"testing"
)

// FuzzAFFDecode: the AFF decoder must never panic on arbitrary bytes, and
// anything it does decode must re-encode to an equivalent fragment.
func FuzzAFFDecode(f *testing.F) {
	c := AFFCodec{IDBits: 9}
	seedIntro, _, _ := c.EncodeIntro(Intro{ID: 5, TotalLen: 80, Checksum: 0xAB})
	seedData, _, _ := c.EncodeData(Data{ID: 5, Offset: 20, Payload: []byte{1, 2, 3}})
	f.Add(seedIntro, 9, false)
	f.Add(seedData, 9, false)
	f.Add([]byte{}, 1, true)
	f.Add([]byte{0xFF, 0xFF, 0xFF}, 32, true)

	f.Fuzz(func(t *testing.T, p []byte, idBits int, instrument bool) {
		c := AFFCodec{IDBits: ((idBits % 32) + 32) % 32, Instrument: instrument}
		if c.IDBits == 0 {
			c.IDBits = 1
		}
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
		if fr.Intro {
			if !re.Intro || re.ID != fr.ID || re.TotalLen != fr.TotalLen || re.Checksum != fr.Checksum {
				t.Fatalf("intro round trip drift: %+v vs %+v", fr, re)
			}
		} else if re.Intro || re.ID != fr.ID || re.Offset != fr.Offset || !bytes.Equal(re.Payload, fr.Payload) {
			t.Fatalf("data round trip drift: %+v vs %+v", fr, re)
		}
	})
}

// reencode encodes a decoded fragment again, trailer included.
func reencode(c AFFCodec, f Fragment) ([]byte, error) {
	var truth *Truth
	if f.HasTruth {
		truth = &f.Truth
	}
	if f.Intro {
		buf, _, err := c.EncodeIntro(Intro{ID: f.ID, TotalLen: f.TotalLen, Checksum: f.Checksum, Truth: truth})
		return buf, err
	}
	buf, _, err := c.EncodeData(Data{ID: f.ID, Offset: f.Offset, Payload: f.Payload, Truth: truth})
	return buf, err
}

// reencodeStatic encodes a decoded statically addressed fragment again.
func reencodeStatic(c StaticCodec, f StaticFragment) error {
	var err error
	if f.Intro {
		_, _, err = c.EncodeIntro(StaticIntro{Src: f.Src, Seq: f.Seq, TotalLen: f.TotalLen, Checksum: f.Checksum})
	} else {
		_, _, err = c.EncodeData(StaticData{Src: f.Src, Seq: f.Seq, Offset: f.Offset, Payload: f.Payload})
	}
	return err
}

// FuzzStaticDecode: same contract for the statically addressed format.
func FuzzStaticDecode(f *testing.F) {
	c := StaticCodec{AddrBits: 16, SeqBits: 16}
	seedIntro, _, _ := c.EncodeIntro(StaticIntro{Src: 7, Seq: 3, TotalLen: 10, Checksum: 1})
	seedData, _, _ := c.EncodeData(StaticData{Src: 7, Seq: 3, Offset: 0, Payload: []byte{9}})
	f.Add(seedIntro, 16, 16)
	f.Add(seedData, 16, 16)
	f.Add([]byte{0x00}, 48, 16)

	f.Fuzz(func(t *testing.T, p []byte, addrBits, seqBits int) {
		c := StaticCodec{
			AddrBits: ((addrBits % 64) + 64) % 64,
			SeqBits:  ((seqBits % 32) + 32) % 32,
		}
		if c.AddrBits == 0 {
			c.AddrBits = 1
		}
		if c.SeqBits == 0 {
			c.SeqBits = 1
		}
		fr, err := c.Decode(p)
		if err != nil {
			return
		}
		if err := reencodeStatic(c, fr); err != nil {
			t.Fatalf("decoded fragment failed to re-encode: %v (%+v)", err, fr)
		}
	})
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
		c := AFFCodec{IDBits: ((idBits%32)+32)%32 + 1}
		if c.IDBits > 32 {
			c.IDBits = 32
		}
		id &= 1<<uint(c.IDBits) - 1
		totalLen = ((totalLen % MaxPacketLen) + MaxPacketLen) % MaxPacketLen
		offset = ((offset % MaxPacketLen) + MaxPacketLen) % MaxPacketLen

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
			if !back.Intro || back.ID != fr.ID || back.TotalLen != fr.TotalLen || back.Checksum != fr.Checksum {
				t.Fatalf("corrupt intro round trip drift: %+v vs %+v", fr, back)
			}
		}

		if buf, _, err := c.EncodeIntro(Intro{ID: id, TotalLen: totalLen, Checksum: sum}); err == nil {
			check(buf)
		}
		if buf, _, err := c.EncodeData(Data{ID: id, Offset: offset, Payload: payload}); err == nil {
			check(buf)
		}
	})
}

// FuzzStaticBitFlip: the same single-bit-corruption contract for the
// statically addressed format.
func FuzzStaticBitFlip(f *testing.F) {
	f.Add(uint64(7), uint64(3), 10, uint16(1), 0, []byte{9}, uint(0))
	f.Add(uint64(0xFFFF), uint64(0xFFFF), 300, uint16(0xFFFF), 299, []byte{}, uint(50))

	f.Fuzz(func(t *testing.T, src, seq uint64, totalLen int, sum uint16, offset int, payload []byte, flip uint) {
		c := StaticCodec{AddrBits: 16, SeqBits: 16}
		src &= 1<<16 - 1
		seq &= 1<<16 - 1
		totalLen = ((totalLen % MaxPacketLen) + MaxPacketLen) % MaxPacketLen
		offset = ((offset % MaxPacketLen) + MaxPacketLen) % MaxPacketLen

		check := func(buf []byte) {
			if len(buf) == 0 {
				return
			}
			mut := append([]byte(nil), buf...)
			bit := int(flip) % (8 * len(mut))
			mut[bit/8] ^= 1 << uint(bit%8)
			fr, err := c.Decode(mut)
			if err != nil {
				return
			}
			if err := reencodeStatic(c, fr); err != nil {
				t.Fatalf("decoded corrupt fragment failed to re-encode: %v (%+v)", err, fr)
			}
		}

		if buf, _, err := c.EncodeIntro(StaticIntro{Src: src, Seq: seq, TotalLen: totalLen, Checksum: sum}); err == nil {
			check(buf)
		}
		if buf, _, err := c.EncodeData(StaticData{Src: src, Seq: seq, Offset: offset, Payload: payload}); err == nil {
			check(buf)
		}
	})
}
