package aff

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"retri/internal/core"
	"retri/internal/xrand"
)

func adaptiveConfig(bits int) Config {
	cfg := testConfig(bits)
	cfg.AdaptiveWidth = true
	return cfg
}

func TestWidthKeySplit(t *testing.T) {
	for _, tc := range []struct {
		bits int
		id   uint64
	}{{1, 0}, {1, 1}, {9, 0x1AB}, {32, 1<<32 - 1}} {
		key := WidthKey(tc.bits, tc.id)
		b, id := SplitWidthKey(key)
		if b != tc.bits || id != tc.id {
			t.Errorf("SplitWidthKey(WidthKey(%d, %d)) = (%d, %d)", tc.bits, tc.id, b, id)
		}
	}
	if WidthKey(4, 3) == WidthKey(9, 3) {
		t.Error("same id at different widths must key differently")
	}
}

func TestFragmentWidthValidation(t *testing.T) {
	fixed := newFragmenter(t, testConfig(9), 1)
	if _, err := fixed.FragmentWidth([]byte("x"), 4); err == nil {
		t.Error("FragmentWidth accepted on a fixed-width fragmenter")
	}
	f := newFragmenter(t, adaptiveConfig(9), 1)
	if _, err := f.FragmentWidth([]byte("x"), 0); err == nil {
		t.Error("width 0 accepted")
	}
	if _, err := f.FragmentWidth([]byte("x"), 10); err == nil {
		t.Error("width beyond the space accepted")
	}
	if _, err := f.FragmentWidth(nil, 4); err == nil {
		t.Error("empty packet accepted")
	}
}

func TestFragmentWidthRoundTrip(t *testing.T) {
	cfg := adaptiveConfig(16)
	f := newFragmenter(t, cfg, 7)
	packet := make([]byte, 80)
	for i := range packet {
		packet[i] = byte(i * 13)
	}
	for _, w := range []int{1, 4, 9, 16} {
		var out []Packet
		r := NewReassembler(cfg, nil, collect(&out))
		tx, err := f.FragmentWidth(packet, w)
		if err != nil {
			t.Fatalf("FragmentWidth(%d): %v", w, err)
		}
		if tx.IDBits != w {
			t.Errorf("width %d: tx.IDBits = %d", w, tx.IDBits)
		}
		if tx.ID >= 1<<uint(w) {
			t.Errorf("width %d: id %d exceeds width", w, tx.ID)
		}
		for _, fr := range tx.Fragments {
			r.Ingest(fr.Bytes)
		}
		if len(out) != 1 || !bytes.Equal(out[0].Data, packet) {
			t.Fatalf("width %d: delivered %d packets", w, len(out))
		}
		if out[0].ID != WidthKey(w, tx.ID) {
			t.Errorf("width %d: Packet.ID = %#x, want WidthKey %#x", w, out[0].ID, WidthKey(w, tx.ID))
		}
	}
}

// TestMixedWidthSameIDNoMerge pins the demux invariant at its sharpest
// point: two concurrent transactions whose identifiers are numerically
// equal but drawn at different widths must reassemble independently.
func TestMixedWidthSameIDNoMerge(t *testing.T) {
	cfg := adaptiveConfig(9)
	f := newFragmenter(t, cfg, 3)
	narrow := bytes.Repeat([]byte{0xAA}, 60)
	wide := bytes.Repeat([]byte{0x55}, 90)

	// Redraw until the two widths produce the same numeric identifier.
	// The narrow transaction is cloned: the next call reuses the
	// fragmenter's storage.
	var txN, txW Transaction
	for {
		var err error
		if txN, err = f.FragmentWidth(narrow, 4); err != nil {
			t.Fatal(err)
		}
		txN = clone(txN)
		if txW, err = f.FragmentWidth(wide, 9); err != nil {
			t.Fatal(err)
		}
		if txN.ID == txW.ID {
			break
		}
	}

	var out []Packet
	r := NewReassembler(cfg, nil, collect(&out))
	// Interleave the two fragment streams.
	for i := 0; i < len(txN.Fragments) || i < len(txW.Fragments); i++ {
		if i < len(txN.Fragments) {
			r.Ingest(txN.Fragments[i].Bytes)
		}
		if i < len(txW.Fragments) {
			r.Ingest(txW.Fragments[i].Bytes)
		}
	}
	if len(out) != 2 {
		t.Fatalf("delivered %d packets, want 2 (stats %+v)", len(out), r.Stats())
	}
	seen := map[uint64][]byte{}
	for _, p := range out {
		seen[p.ID] = p.Data
	}
	if !bytes.Equal(seen[WidthKey(4, txN.ID)], narrow) {
		t.Error("narrow transaction not delivered intact")
	}
	if !bytes.Equal(seen[WidthKey(9, txW.ID)], wide) {
		t.Error("wide transaction not delivered intact")
	}
}

// TestMixedWidthNeverMisdelivers is the adaptive-width safety property:
// senders hopping widths mid-stream, with interleaved fragments, must
// never deliver a packet that was not sent. Deliveries may be lost to a
// genuine (width, id) collision — collisions are the paper's accepted
// cost — but every delivered payload must byte-match a sent payload.
func TestMixedWidthNeverMisdelivers(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 11))
		cfg := adaptiveConfig(9)
		sent := map[string]bool{}
		var frags [][]byte
		for s := 0; s < 4; s++ {
			sel := core.NewUniformSelector(cfg.Space, xrand.NewSource(seed).Stream("sel", fmt.Sprint(s)))
			f, err := NewFragmenter(cfg, sel, uint32(s))
			if err != nil {
				return false
			}
			for tx := 0; tx < 6; tx++ {
				n := int(rng.Uint64N(120)) + 1
				packet := make([]byte, n)
				for i := range packet {
					packet[i] = byte(rng.Uint64())
				}
				sent[string(packet)] = true
				width := int(rng.Uint64N(9)) + 1
				out, err := f.FragmentWidth(packet, width)
				if err != nil {
					return false
				}
				for _, fr := range out.Fragments {
					frags = append(frags, fr.Bytes)
				}
			}
		}
		// Shuffle fragments across senders and transactions.
		rng.Shuffle(len(frags), func(i, j int) { frags[i], frags[j] = frags[j], frags[i] })
		ok := true
		r := NewReassembler(cfg, nil, func(p Packet) {
			if !sent[string(p.Data)] {
				ok = false
			}
		})
		for _, fb := range frags {
			r.Ingest(fb)
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestFixedConfigIgnoresAdaptiveFrames documents the format boundary: a
// fixed-width reassembler fed adaptive-format frames must fail safe
// (never deliver corrupt data), exactly like the other misconfiguration
// tests.
func TestFixedConfigIgnoresAdaptiveFrames(t *testing.T) {
	adaptive := adaptiveConfig(9)
	f := newFragmenter(t, adaptive, 5)
	tx, err := f.FragmentWidth(bytes.Repeat([]byte{7}, 50), 9)
	if err != nil {
		t.Fatal(err)
	}
	var out []Packet
	r := NewReassembler(testConfig(9), nil, collect(&out))
	for _, fr := range tx.Fragments {
		r.Ingest(fr.Bytes)
	}
	for _, p := range out {
		if bytes.Equal(p.Data, bytes.Repeat([]byte{7}, 50)) {
			continue // an accidental clean decode is fine; corrupt data is not
		}
		t.Fatal("fixed-width reassembler delivered corrupt data from adaptive frames")
	}
}
