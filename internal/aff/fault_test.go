package aff

import (
	"bytes"
	"testing"
	"testing/quick"

	"retri/internal/core"
	"retri/internal/xrand"
)

// TestFaultInjectionNeverCorrupts: under arbitrary per-fragment drop,
// duplication and reordering across MANY interleaved transactions, the
// reassembler delivers only byte-exact packets — loss is the only failure
// mode the application ever sees (identifier collisions excluded here by a
// wide space).
func TestFaultInjectionNeverCorrupts(t *testing.T) {
	f := func(seed uint64) bool {
		src := xrand.NewSource(seed)
		rng := src.Stream("faults")
		cfg := testConfig(16)
		sent := make(map[string]bool)

		// Build several transactions from several senders.
		type txFrag struct{ bytes []byte }
		var frags []txFrag
		for s := 0; s < 4; s++ {
			sel := core.NewUniformSelector(cfg.Space, src.Stream("sel", string(rune('0'+s))))
			fr, err := NewFragmenter(cfg, sel, uint32(s))
			if err != nil {
				return false
			}
			for p := 0; p < 3; p++ {
				pkt := make([]byte, int(rng.Uint64N(300))+1)
				for i := range pkt {
					pkt[i] = byte(rng.Uint64())
				}
				sent[string(pkt)] = true
				tx, err := fr.Fragment(pkt)
				if err != nil {
					return false
				}
				for _, fg := range tx.Fragments {
					frags = append(frags, txFrag{bytes: fg.Bytes})
				}
			}
		}

		// Fault injection: drop 20%, duplicate 20%, shuffle everything.
		var stream [][]byte
		for _, fg := range frags {
			switch rng.Uint64N(5) {
			case 0: // drop
			case 1: // duplicate
				stream = append(stream, fg.bytes, fg.bytes)
			default:
				stream = append(stream, fg.bytes)
			}
		}
		rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })

		ok := true
		r := NewReassembler(cfg, nil, func(p Packet) {
			if !sent[string(p.Data)] {
				ok = false
			}
		})
		for _, b := range stream {
			r.Ingest(b)
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestLossOnlyAffectsLossyTransactions: dropping fragments of one
// transaction must not prevent other transactions from delivering.
func TestLossOnlyAffectsLossyTransactions(t *testing.T) {
	cfg := testConfig(12)
	src := xrand.NewSource(9)
	selA := core.NewUniformSelector(cfg.Space, src.Stream("a"))
	selB := core.NewUniformSelector(cfg.Space, src.Stream("b"))
	fa, err := NewFragmenter(cfg, selA, 1)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := NewFragmenter(cfg, selB, 2)
	if err != nil {
		t.Fatal(err)
	}
	pktA := bytes.Repeat([]byte{0xA}, 100)
	pktB := bytes.Repeat([]byte{0xB}, 100)
	txA, err := fa.Fragment(pktA)
	if err != nil {
		t.Fatal(err)
	}
	txB, err := fb.Fragment(pktB)
	if err != nil {
		t.Fatal(err)
	}

	var out []Packet
	r := NewReassembler(cfg, nil, collect(&out))
	// Interleave, dropping txA's second data fragment.
	for i := 0; i < len(txA.Fragments); i++ {
		if i != 2 {
			r.Ingest(txA.Fragments[i].Bytes)
		}
		r.Ingest(txB.Fragments[i].Bytes)
	}
	if len(out) != 1 || !bytes.Equal(out[0].Data, pktB) {
		t.Fatalf("expected exactly B delivered, got %d packets", len(out))
	}
}

// TestDuplicateIntroAfterDeliveryStartsFresh: after a packet completes,
// its identifier must be immediately reusable — the temporal-reuse
// property the scheme depends on.
func TestIdentifierImmediatelyReusableAfterDelivery(t *testing.T) {
	cfg := testConfig(4)
	sel := core.NewSequentialSelector(cfg.Space, 9)
	sel2 := core.NewSequentialSelector(cfg.Space, 9)
	f1, err := NewFragmenter(cfg, sel, 1)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := NewFragmenter(cfg, sel2, 2)
	if err != nil {
		t.Fatal(err)
	}

	var out []Packet
	r := NewReassembler(cfg, nil, collect(&out))
	for round := 0; round < 5; round++ {
		pkt := bytes.Repeat([]byte{byte(round)}, 50)
		fr := f1
		if round%2 == 1 {
			fr = f2 // alternate senders, same id sequence
		}
		tx, err := fr.Fragment(pkt)
		if err != nil {
			t.Fatal(err)
		}
		for _, fg := range tx.Fragments {
			r.Ingest(fg.Bytes)
		}
	}
	if len(out) != 5 {
		t.Errorf("delivered %d/5 sequential same-id-pool transactions", len(out))
	}
	if r.Stats().Conflicts != 0 {
		t.Errorf("conflicts = %d on non-overlapping reuse", r.Stats().Conflicts)
	}
}

// TestPendingStateBounded: a flood of orphan data fragments under many
// identifiers cannot grow per-identifier state beyond the early-fragment
// cap, and the identifier count is bounded by the space size.
func TestPendingStateBounded(t *testing.T) {
	cfg := testConfig(6) // 64 identifiers
	r := NewReassembler(cfg, nil, nil)
	src := xrand.NewSource(10)
	sel := core.NewUniformSelector(cfg.Space, src.Stream("s"))
	f, err := NewFragmenter(cfg, sel, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		tx, err := f.Fragment(bytes.Repeat([]byte{byte(i)}, 60))
		if err != nil {
			t.Fatal(err)
		}
		// Only data fragments; introductions never arrive.
		for _, fg := range tx.Fragments[1:] {
			r.Ingest(fg.Bytes)
		}
	}
	if got := r.PendingCount(); got > 64 {
		t.Errorf("pending identifiers = %d, cannot exceed space size 64", got)
	}
}
