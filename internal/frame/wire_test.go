package frame

import (
	"encoding/hex"
	"testing"
)

// The fields every wire vector's introduction and data frame carry; only
// the format and the transaction key vary between vectors.
const (
	vectorLen    = 80
	vectorSum    = 0xBEEF
	vectorOffset = 48
)

var vectorPayload = []byte("sensor")

// wireFrame is one encoded frame: its bytes as hex and its meaningful
// bit count.
type wireFrame struct {
	hex  string
	bits int
}

func newWireFrame(p []byte, bits int) wireFrame {
	return wireFrame{hex: hex.EncodeToString(p), bits: bits}
}

// wireVector is one wire format's introduction and data frame. seqBits
// above zero selects the statically addressed format, whose address
// travels in id.
type wireVector struct {
	name               string
	idBits, seqBits    int
	instrument, inBand bool
	id, seq            uint64
	truth              *Truth
	intro, data        wireFrame
}

// TestAFFFixedWidthBytesUnchanged pins every wire format bit for bit: one
// introduction and one data frame each for AFF at a fixed width, with
// the in-band width field and with the instrumentation trailer, and for
// the statically addressed baseline at 16-, 48- and 64-bit addresses.
// A codec refactor must leave every byte and every bit count as it is.
func TestAFFFixedWidthBytesUnchanged(t *testing.T) {
	vectors := []wireVector{
		{name: "aff fixed 9", idBits: 9, id: 0x1AB,
			intro: wireFrame{"6ac0142fbbc0", 42},
			data:  wireFrame{"eac00c0073656e736f72", 80}},
		{name: "aff in-band 9", idBits: 9, inBand: true, id: 0x1AB,
			intro: wireFrame{"235600a17dde", 47},
			data:  wireFrame{"a356006073656e736f72", 80}},
		{name: "aff instrumented 9", idBits: 9, instrument: true, id: 0x1AB,
			truth: &Truth{Node: 3, Seq: 41},
			intro: wireFrame{"6ac0142fbbc0000000c000000a63c0", 114},
			data:  wireFrame{"eac00c00000000c000000a63c073656e736f72", 152}},
		{name: "static 16/16", idBits: 16, seqBits: 16, id: 0xABCD, seq: 77,
			intro: wireFrame{"55e6802680285f7780", 65},
			data:  wireFrame{"d5e6802680180073656e736f72", 104}},
		{name: "static 48/16", idBits: 48, seqBits: 16, id: 0xDEADBEEFCAFE, seq: 3,
			intro: wireFrame{"6f56df77e57f000180285f7780", 97},
			data:  wireFrame{"ef56df77e57f000180180073656e736f72", 136}},
		{name: "static 64/16", idBits: 64, seqBits: 16, id: 0xFEDCBA9876543210, seq: 0xFFFF,
			intro: wireFrame{"7f6e5d4c3b2a19087fff80285f7780", 113},
			data:  wireFrame{"ff6e5d4c3b2a19087fff80180073656e736f72", 152}},
	}
	for _, v := range vectors {
		t.Run(v.name, func(t *testing.T) {
			intro, data, err := encodeVector(v)
			if err != nil {
				t.Fatal(err)
			}
			if intro != v.intro {
				t.Errorf("intro = %+v, want %+v", intro, v.intro)
			}
			if data != v.data {
				t.Errorf("data = %+v, want %+v", data, v.data)
			}
		})
	}
}
