package node

import (
	"bytes"
	"testing"
	"time"

	"retri/internal/aff"
	"retri/internal/core"
	"retri/internal/density"
	"retri/internal/frame"
	"retri/internal/radio"
	"retri/internal/sim"
	"retri/internal/staticaddr"
	"retri/internal/xrand"
)

// rig is a small test network: one engine, one medium, n radios.
type rig struct {
	eng *sim.Engine
	med *radio.Medium
}

func newRig(t *testing.T, p radio.Params) *rig {
	t.Helper()
	eng := sim.NewEngine()
	rng := xrand.NewSource(11).Stream("node-test", t.Name())
	return &rig{eng: eng, med: radio.NewMedium(eng, radio.FullMesh{}, p, rng)}
}

func affConfig(bits int) aff.Config {
	return aff.Config{Space: core.MustSpace(bits), MTU: 27}
}

func newAFFNode(t *testing.T, r *rig, id radio.NodeID, cfg aff.Config, opts AFFOptions) *AFFDriver {
	t.Helper()
	rad := r.med.MustAttach(id)
	sel := core.NewUniformSelector(cfg.Space, xrand.NewSource(uint64(id)).Stream("sel", t.Name()))
	d, err := NewAFF(rad, cfg, sel, opts)
	if err != nil {
		t.Fatalf("NewAFF(%d): %v", id, err)
	}
	return d
}

func TestAFFEndToEnd(t *testing.T) {
	r := newRig(t, radio.DefaultParams())
	cfg := affConfig(9)
	tx := newAFFNode(t, r, 1, cfg, AFFOptions{})
	rx := newAFFNode(t, r, 2, cfg, AFFOptions{})
	var got [][]byte
	rx.SetPacketHandler(func(p []byte) { got = append(got, bytes.Clone(p)) })

	packet := make([]byte, 80)
	for i := range packet {
		packet[i] = byte(i)
	}
	if err := tx.SendPacket(packet); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()

	if len(got) != 1 || !bytes.Equal(got[0], packet) {
		t.Fatalf("received %d packets, want the original back", len(got))
	}
	if tx.PacketsSent() != 1 {
		t.Errorf("PacketsSent = %d, want 1", tx.PacketsSent())
	}
	if rx.PacketsDelivered() != 1 {
		t.Errorf("PacketsDelivered = %d, want 1", rx.PacketsDelivered())
	}
}

func TestStaticEndToEnd(t *testing.T) {
	r := newRig(t, radio.DefaultParams())
	cfg := staticaddr.Config{AddrBits: 16, MTU: 27}
	radA := r.med.MustAttach(1)
	radB := r.med.MustAttach(2)
	tx, err := NewStatic(radA, cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewStatic(radB, cfg, 200)
	if err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	rx.SetPacketHandler(func(p []byte) { got = append(got, bytes.Clone(p)) })

	packet := []byte("static baseline packet for comparison purposes")
	if err := tx.SendPacket(packet); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()

	if len(got) != 1 || !bytes.Equal(got[0], packet) {
		t.Fatal("static round trip failed")
	}
	if tx.Addr() != 100 {
		t.Errorf("Addr() = %d", tx.Addr())
	}
	if tx.PacketsSent() != 1 || rx.PacketsDelivered() != 1 {
		t.Error("packet counters wrong")
	}
}

func TestAFFListeningTapFeedsSelector(t *testing.T) {
	r := newRig(t, radio.DefaultParams())
	cfg := affConfig(9)
	tx := newAFFNode(t, r, 1, cfg, AFFOptions{})

	rad := r.med.MustAttach(2)
	listenSel := core.NewListeningSelector(cfg.Space, xrand.NewSource(2).Stream("ls"), core.FixedWindow(10))
	rx, err := NewAFF(rad, cfg, listenSel, AFFOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_ = rx

	if err := tx.SendPacket(make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()

	if listenSel.Recent() == 0 {
		t.Error("receiver's listening selector observed nothing")
	}
}

func TestAFFEstimatorWired(t *testing.T) {
	r := newRig(t, radio.DefaultParams())
	cfg := affConfig(9)
	tx := newAFFNode(t, r, 1, cfg, AFFOptions{})

	rad := r.med.MustAttach(2)
	est := density.New(time.Second, 1, r.eng.Now)
	sel := core.NewUniformSelector(cfg.Space, xrand.NewSource(3).Stream("s"))
	if _, err := NewAFF(rad, cfg, sel, AFFOptions{Estimator: est}); err != nil {
		t.Fatal(err)
	}

	if err := tx.SendPacket(make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if est.Active() == 0 && est.Estimate() <= 1 {
		// At least one transaction should have been observed.
		t.Error("estimator observed no transactions")
	}
}

func TestAFFObserveOwn(t *testing.T) {
	r := newRig(t, radio.DefaultParams())
	cfg := affConfig(9)
	rad := r.med.MustAttach(1)
	sel := core.NewListeningSelector(cfg.Space, xrand.NewSource(4).Stream("own"), core.FixedWindow(10))
	d, err := NewAFF(rad, cfg, sel, AFFOptions{ObserveOwn: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SendPacket([]byte("mine")); err != nil {
		t.Fatal(err)
	}
	if sel.Recent() != 1 {
		t.Errorf("own transaction not observed: window holds %d", sel.Recent())
	}
}

func TestAFFInstrumentedTruthSideChannel(t *testing.T) {
	r := newRig(t, radio.DefaultParams())
	cfg := affConfig(9)
	cfg.Instrument = true
	tx := newAFFNode(t, r, 1, cfg, AFFOptions{})

	rad := r.med.MustAttach(2)
	truth := aff.NewTruthReassembler(cfg, r.eng.Now)
	sel := core.NewUniformSelector(cfg.Space, xrand.NewSource(5).Stream("tr"))
	rx, err := NewAFF(rad, cfg, sel, AFFOptions{Truth: truth})
	if err != nil {
		t.Fatal(err)
	}

	if err := tx.SendPacket(make([]byte, 80)); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()

	if truth.Stats().Delivered != 1 {
		t.Errorf("truth Delivered = %d, want 1", truth.Stats().Delivered)
	}
	if rx.PacketsDelivered() != 1 {
		t.Errorf("under-test Delivered = %d, want 1", rx.PacketsDelivered())
	}
}

func TestTemporalReuseOfIdentifier(t *testing.T) {
	// Two senders forced onto the SAME identifier but whose transactions
	// do not overlap in time (CSMA serializes them): both packets must be
	// delivered. "Nearby nodes can use the same identifier at different
	// times" (Section 3.2).
	r := newRig(t, radio.DefaultParams())
	cfg := affConfig(4)
	radA := r.med.MustAttach(1)
	dA, err := NewAFF(radA, cfg, core.NewSequentialSelector(cfg.Space, 7), AFFOptions{})
	if err != nil {
		t.Fatal(err)
	}
	radB := r.med.MustAttach(2)
	dB, err := NewAFF(radB, cfg, core.NewSequentialSelector(cfg.Space, 7), AFFOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sink := newAFFNode(t, r, 3, cfg, AFFOptions{})
	delivered := 0
	sink.SetPacketHandler(func([]byte) { delivered++ })

	if err := dA.SendPacket(bytes.Repeat([]byte{0xA}, 60)); err != nil {
		t.Fatal(err)
	}
	r.eng.Run() // A's transaction completes before B's begins
	if err := dB.SendPacket(bytes.Repeat([]byte{0xB}, 60)); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()

	if delivered != 2 {
		t.Errorf("delivered %d packets, want 2 (temporal identifier reuse)", delivered)
	}
	if c := sink.Reassembler().Stats().Conflicts; c != 0 {
		t.Errorf("conflicts = %d, want 0 for non-overlapping reuse", c)
	}
}

func TestCollisionNotificationRoundTrip(t *testing.T) {
	// A receiver detecting an identifier conflict broadcasts a
	// notification; a listening node hearing it avoids the identifier
	// (Section 3.2: "the receiver could try to send an explicit
	// 'identifier collision notification' to the two senders").
	r := newRig(t, radio.DefaultParams())
	cfg := affConfig(4)

	// A: the receiver that will detect the conflict and notify.
	radA := r.med.MustAttach(1)
	selA := core.NewUniformSelector(cfg.Space, xrand.NewSource(6).Stream("a"))
	dA, err := NewAFF(radA, cfg, selA, AFFOptions{NotifyCollisions: true})
	if err != nil {
		t.Fatal(err)
	}
	// D: a bystander with a listening selector; it must learn about the
	// collision from A's notification alone.
	radD := r.med.MustAttach(2)
	selD := core.NewListeningSelector(cfg.Space, xrand.NewSource(7).Stream("d"), core.FixedWindow(8))
	if _, err := NewAFF(radD, cfg, selD, AFFOptions{NotifyCollisions: true}); err != nil {
		t.Fatal(err)
	}

	// Two conflicting transactions under identifier 7, interleaved as a
	// hidden-terminal pair would produce them. They are injected straight
	// into A's frame path to control the interleaving precisely.
	mk := func(fill byte, truthNode uint32) [][]byte {
		fcfg := cfg
		fcfg.MTU = 26 // leave room for the discriminator bit
		fr, err := aff.NewFragmenter(fcfg, core.NewSequentialSelector(cfg.Space, 7), truthNode)
		if err != nil {
			t.Fatal(err)
		}
		tx, err := fr.Fragment(bytes.Repeat([]byte{fill}, 60))
		if err != nil {
			t.Fatal(err)
		}
		frames := make([][]byte, len(tx.Fragments))
		for i, f := range tx.Fragments {
			frames[i], _ = frame.WrapBit(nil, discFragment, f.Bytes, f.Bits)
		}
		return frames
	}
	fa, fb := mk(0xAA, 10), mk(0xBB, 11)
	for i := range fa {
		dA.onFrame(radio.Frame{From: 10, Payload: fa[i]})
		dA.onFrame(radio.Frame{From: 11, Payload: fb[i]})
	}
	if dA.Reassembler().Stats().Conflicts == 0 {
		t.Fatal("receiver did not detect the conflict")
	}
	// Let A's notification frame propagate to D.
	r.eng.Run()

	if selD.Recent() == 0 {
		t.Fatal("bystander heard no notification")
	}
	for i := 0; i < 50; i++ {
		if id := selD.Next(); id == 7 {
			t.Fatal("bystander still selects the collided identifier")
		}
	}
}

func TestNotificationCodecRoundTrip(t *testing.T) {
	for _, idBits := range []int{1, 4, 9, 16, 32} {
		id := uint64(1)<<uint(idBits) - 1
		buf, bits := encodeNotification(id, idBits)
		if bits != 1+idBits {
			t.Errorf("idBits=%d: bits = %d, want %d", idBits, bits, 1+idBits)
		}
		kind, inner, ok := frame.UnwrapBit(nil, buf)
		if !ok || kind != discNotification {
			t.Fatalf("idBits=%d: unwrap failed (kind=%d ok=%v)", idBits, kind, ok)
		}
		got, ok := decodeNotification(inner, idBits)
		if !ok || got != id {
			t.Errorf("idBits=%d: decoded %d, want %d", idBits, got, id)
		}
	}
}

func TestWrapUnwrapFragment(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5}
	wrapped, bits := frame.WrapBit(nil, discFragment, payload, 8*len(payload))
	if bits != 1+40 {
		t.Errorf("bits = %d, want 41", bits)
	}
	kind, inner, ok := frame.UnwrapBit(nil, wrapped)
	if !ok || kind != discFragment || !bytes.Equal(inner, payload) {
		t.Errorf("unwrap = (%d, %v, %v)", kind, inner, ok)
	}
}

func TestUnwrapEmptyFrame(t *testing.T) {
	if _, _, ok := frame.UnwrapBit(nil, nil); ok {
		t.Error("unwrap of empty frame succeeded")
	}
}

func TestNewAFFNilRadio(t *testing.T) {
	cfg := affConfig(9)
	sel := core.NewUniformSelector(cfg.Space, xrand.NewSource(1).Stream("n"))
	if _, err := NewAFF(nil, cfg, sel, AFFOptions{}); err == nil {
		t.Error("nil radio accepted")
	}
	if _, err := NewStatic(nil, staticaddr.Config{AddrBits: 16}, 1); err == nil {
		t.Error("nil radio accepted by NewStatic")
	}
}

func TestManySendersMostlyDeliveredWithBigIDs(t *testing.T) {
	// With a 16-bit space and 6 senders, identifier collisions are
	// vanishingly rare. RF collisions in the contention MAC still cost
	// some frames (no retransmission), so "most" packets arrive — and
	// none of the losses may be identifier conflicts.
	r := newRig(t, radio.DefaultParams())
	cfg := affConfig(16)
	sink := newAFFNode(t, r, 99, cfg, AFFOptions{})
	delivered := 0
	sink.SetPacketHandler(func([]byte) { delivered++ })

	senders := make([]*AFFDriver, 6)
	for i := range senders {
		senders[i] = newAFFNode(t, r, radio.NodeID(i+1), cfg, AFFOptions{})
	}
	const rounds = 10
	for round := 0; round < rounds; round++ {
		for i, s := range senders {
			pkt := bytes.Repeat([]byte{byte(i + 1)}, 60)
			pkt[0] = byte(round)
			if err := s.SendPacket(pkt); err != nil {
				t.Fatal(err)
			}
		}
		r.eng.Run()
	}
	offered := rounds * len(senders)
	if delivered < offered/2 {
		t.Errorf("sink delivered %d of %d packets, want at least half", delivered, offered)
	}
	if c := sink.Reassembler().Stats().Conflicts; c != 0 {
		t.Errorf("identifier conflicts = %d, want 0 in a 16-bit space", c)
	}
}
