package node

import (
	"errors"
	"testing"

	"retri/internal/aff"
	"retri/internal/core"
	"retri/internal/radio"
	"retri/internal/staticaddr"
	"retri/internal/xrand"
)

func TestAFFAccessors(t *testing.T) {
	r := newRig(t, radio.DefaultParams())
	cfg := affConfig(9)
	d := newAFFNode(t, r, 1, cfg, AFFOptions{})
	if d.Selector() == nil {
		t.Error("Selector() = nil")
	}
	if d.Radio() == nil || d.Radio().ID() != 1 {
		t.Error("Radio() wrong")
	}
	if d.Reassembler() == nil {
		t.Error("Reassembler() = nil")
	}
}

func TestStaticAccessors(t *testing.T) {
	r := newRig(t, radio.DefaultParams())
	rad := r.med.MustAttach(7)
	d, err := NewStatic(rad, staticaddr.Config{AddrBits: 16, MTU: 27}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if d.Radio() == nil || d.Radio().ID() != 7 {
		t.Error("Radio() wrong")
	}
	if d.Reassembler() == nil {
		t.Error("Reassembler() = nil")
	}
}

func TestAFFSendPacketErrors(t *testing.T) {
	r := newRig(t, radio.DefaultParams())
	cfg := affConfig(9)
	d := newAFFNode(t, r, 1, cfg, AFFOptions{})
	// Fragmenter-level failure: empty packet.
	if err := d.SendPacket(nil); err == nil {
		t.Error("empty packet accepted")
	}
	// Radio-level failure: radio down. Every refusal reads the same, and
	// once the error is built a refused send allocates nothing.
	d.Radio().SetUp(false)
	packet := []byte("x")
	for i := 0; i < 2; i++ {
		if err := d.SendPacket(packet); !errors.Is(err, radio.ErrRadioDown) || err.Error() != "node: send fragment: radio: radio is down: node 1" {
			t.Errorf("down radio err %d = %v, want ErrRadioDown for node 1", i, err)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = d.SendPacket(packet) }); allocs != 0 {
		t.Errorf("a refused SendPacket allocated %.1f times, want 0", allocs)
	}
	if d.PacketsSent() != 0 {
		t.Errorf("PacketsSent = %d after failures, want 0", d.PacketsSent())
	}
}

func TestStaticSendPacketErrors(t *testing.T) {
	r := newRig(t, radio.DefaultParams())
	rad := r.med.MustAttach(1)
	d, err := NewStatic(rad, staticaddr.Config{AddrBits: 16, MTU: 27}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SendPacket(nil); err == nil {
		t.Error("empty packet accepted")
	}
	d.Radio().SetUp(false)
	for i := 0; i < 2; i++ {
		if err := d.SendPacket([]byte("x")); !errors.Is(err, radio.ErrRadioDown) || err.Error() != "node: send fragment: radio: radio is down: node 1" {
			t.Errorf("down radio err %d = %v, want ErrRadioDown for node 1", i, err)
		}
	}
}

func TestNewAFFBadConfig(t *testing.T) {
	r := newRig(t, radio.DefaultParams())
	rad := r.med.MustAttach(1)
	// Selector space mismatch surfaces from the fragmenter.
	cfg := affConfig(9)
	badSel := core.NewUniformSelector(core.MustSpace(4), xrand.NewSource(1).Stream("bad"))
	if _, err := NewAFF(rad, cfg, badSel, AFFOptions{}); err == nil {
		t.Error("space mismatch accepted")
	}
}

// TestNewAFFRejectsMismatchedTruth: the ground-truth reassembler shares
// the driver's decode of every frame, so NewAFF refuses one that speaks
// another wire format. An uninstrumented driver is the common mistake:
// its frames carry no trailer, and every one would count as malformed on
// the truth side.
func TestNewAFFRejectsMismatchedTruth(t *testing.T) {
	r := newRig(t, radio.DefaultParams())
	instrumented := func(bits int) aff.Config {
		cfg := affConfig(bits)
		cfg.Instrument = true
		return cfg
	}
	adaptive := instrumented(9)
	adaptive.AdaptiveWidth = true
	for i, tc := range []struct {
		name          string
		driver, truth aff.Config
		ok            bool
	}{
		{"uninstrumented driver", affConfig(9), affConfig(9), false},
		{"other width", instrumented(9), instrumented(10), false},
		{"other format", instrumented(9), adaptive, false},
		{"same format", instrumented(9), instrumented(9), true},
	} {
		rad := r.med.MustAttach(radio.NodeID(i + 1))
		sel := core.NewUniformSelector(tc.driver.Space, xrand.NewSource(1).Stream("truth", tc.name))
		_, err := NewAFF(rad, tc.driver, sel, AFFOptions{Truth: aff.NewTruthReassembler(tc.truth, r.eng.Now)})
		if (err == nil) != tc.ok {
			t.Errorf("%s: NewAFF err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestNewStaticBadConfig(t *testing.T) {
	r := newRig(t, radio.DefaultParams())
	rad := r.med.MustAttach(1)
	if _, err := NewStatic(rad, staticaddr.Config{AddrBits: 4, MTU: 27}, 99); err == nil {
		t.Error("address wider than space accepted")
	}
}

func TestNotifyCollisionsDefaultMTU(t *testing.T) {
	// NotifyCollisions with a zero-MTU config must apply the default
	// before reserving the discriminator byte.
	r := newRig(t, radio.DefaultParams())
	rad := r.med.MustAttach(1)
	cfg := affConfig(9)
	cfg.MTU = 0
	sel := core.NewUniformSelector(cfg.Space, xrand.NewSource(5).Stream("mtu"))
	d, err := NewAFF(rad, cfg, sel, AFFOptions{NotifyCollisions: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SendPacket(make([]byte, 200)); err != nil {
		t.Fatalf("full-size packet with notification framing: %v", err)
	}
	r.eng.Run()
}
