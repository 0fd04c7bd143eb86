package flood

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"retri/internal/aff"
	"retri/internal/core"
	"retri/internal/frame"
	"retri/internal/node"
	"retri/internal/radio"
	"retri/internal/sim"
	"retri/internal/xrand"
)

// relayRig is one node's relay plus the plumbing to receive through it:
// the radio handler routes every frame through UnwrapIncoming and stashes
// delivered inner frames.
type relayRig struct {
	relay     *Relay
	radio     *radio.Radio
	delivered [][]byte
}

// relayLine builds n relays on a line where only adjacent nodes hear each
// other, all using the digest keyer over opaque payloads.
func relayLine(t *testing.T, n int, cfg RelayConfig, seed uint64) (*sim.Engine, []*relayRig) {
	t.Helper()
	eng := sim.NewEngine()
	src := xrand.NewSource(seed).Child("relay", t.Name())
	disk := radio.NewUnitDisk(6)
	med := radio.NewMedium(eng, disk, radio.DefaultParams(), src.Stream("m"))
	rigs := make([]*relayRig, n)
	for i := 0; i < n; i++ {
		disk.Place(radio.NodeID(i), radio.Point{X: float64(i) * 5})
		r := med.MustAttach(radio.NodeID(i))
		rl, err := NewRelay(cfg, eng, r, src.Stream("rng", fmt.Sprint(i)))
		if err != nil {
			t.Fatal(err)
		}
		rig := &relayRig{relay: rl, radio: r}
		r.SetHandler(func(f radio.Frame) {
			if inner, ok := rl.UnwrapIncoming(f); ok {
				rig.delivered = append(rig.delivered, append([]byte(nil), inner...))
			}
		})
		rigs[i] = rig
	}
	return eng, rigs
}

func (rig *relayRig) originate(t *testing.T, payload []byte) {
	t.Helper()
	fwd, bits := rig.relay.WrapOutgoing(payload, len(payload)*8)
	if err := rig.radio.Send(fwd, bits); err != nil {
		t.Fatal(err)
	}
}

func TestRelayEnvelopeRoundTrip(t *testing.T) {
	eng, rigs := relayLine(t, 1, RelayConfig{TTL: 5, Keyer: DigestKeyer()}, 1)
	_ = eng
	payload := []byte("inner frame bytes")
	fwd, bits := rigs[0].relay.WrapOutgoing(payload, len(payload)*8)
	if bits != envelopeBits+len(payload)*8 {
		t.Errorf("wrapped bits = %d, want %d", bits, envelopeBits+len(payload)*8)
	}
	inner, ok := StripEnvelope(fwd)
	if !ok || !bytes.Equal(inner, payload) {
		t.Fatalf("StripEnvelope = %q, %v; want original payload", inner, ok)
	}
	if _, ok := StripEnvelope(nil); ok {
		t.Error("StripEnvelope accepted an empty frame")
	}
}

func TestRelayHopScope(t *testing.T) {
	// TTL 2: the origin's copy carries 2, one hop later 1, two hops later
	// 0; the node that receives the TTL-0 copy delivers but never
	// forwards, so audibility is TTL+1 hops.
	eng, rigs := relayLine(t, 6, RelayConfig{TTL: 2, Keyer: DigestKeyer()}, 2)
	rigs[0].originate(t, []byte("scoped"))
	eng.Run()
	for i, wantDelivered := range []int{0, 1, 1, 1, 0, 0} {
		if got := len(rigs[i].delivered); got != wantDelivered {
			t.Errorf("node %d delivered %d, want %d", i, got, wantDelivered)
		}
	}
	if exp := rigs[3].relay.Stats().Expired; exp != 1 {
		t.Errorf("node 3 Expired = %d, want 1", exp)
	}
	if fwd := rigs[3].relay.Stats().Forwarded; fwd != 0 {
		t.Errorf("node 3 forwarded an expired copy %d times", fwd)
	}
}

func TestRelayDuplicateSuppression(t *testing.T) {
	// 0 and 2 both hear 1; 1's rebroadcast echoes back to 0, which marked
	// its own key at origination and must swallow the echo.
	eng, rigs := relayLine(t, 3, RelayConfig{TTL: 3, Keyer: DigestKeyer()}, 3)
	rigs[0].originate(t, []byte("once"))
	eng.Run()
	if got := len(rigs[0].delivered); got != 0 {
		t.Errorf("originator delivered its own echo %d times", got)
	}
	if s := rigs[0].relay.Stats().Suppressed; s == 0 {
		t.Error("originator never suppressed the echo")
	}
	if got := len(rigs[2].delivered); got != 1 {
		t.Errorf("node 2 delivered %d copies, want exactly 1", got)
	}
}

func TestRelayResetOrphansPendingForwards(t *testing.T) {
	eng, rigs := relayLine(t, 3, RelayConfig{TTL: 3, ForwardJitter: 50 * time.Millisecond, Keyer: DigestKeyer()}, 4)
	rigs[0].originate(t, []byte("doomed"))
	// Let node 1 receive and schedule its forward, then crash it before
	// the jitter elapses: the pending copy died with its RAM.
	eng.Schedule(20*time.Millisecond, func() { rigs[1].relay.Reset() })
	eng.Run()
	if fwd := rigs[1].relay.Stats().Forwarded; fwd != 0 {
		t.Errorf("reset relay still forwarded %d copies", fwd)
	}
	if got := len(rigs[2].delivered); got != 0 {
		t.Errorf("node 2 heard %d copies through a crashed relay", got)
	}
}

func TestRelayCongestionGuard(t *testing.T) {
	// MaxQueue 1 with a jammed transmit queue: the scheduled forward must
	// be dropped at fire time, not queued behind the backlog.
	eng, rigs := relayLine(t, 2, RelayConfig{TTL: 3, MaxQueue: 1, Keyer: DigestKeyer()}, 5)
	// Jam node 1's radio with unrelated traffic so its queue is deep when
	// the forward fires. The junk carries a spent hop budget so node 0
	// never re-floods it back.
	junk := append([]byte{0x00}, bytes.Repeat([]byte{0xEE}, 19)...)
	for i := 0; i < 6; i++ {
		if err := rigs[1].radio.Send(junk, len(junk)*8); err != nil {
			t.Fatal(err)
		}
	}
	rigs[0].originate(t, []byte("storm"))
	eng.Run()
	st := rigs[1].relay.Stats()
	if st.Congested == 0 {
		t.Fatalf("congestion guard never fired: %+v", st)
	}
	if st.Forwarded != 0 {
		t.Errorf("jammed relay still forwarded %d copies", st.Forwarded)
	}
	// The inner frame was still delivered locally: congestion sheds
	// forwarding load, never reception.
	if got := len(rigs[1].delivered); got != 1 {
		t.Errorf("congested relay delivered %d, want 1", got)
	}
}

func TestRelayUnlimitedQueueDisablesGuard(t *testing.T) {
	eng, rigs := relayLine(t, 2, RelayConfig{TTL: 3, MaxQueue: -1, Keyer: DigestKeyer()}, 6)
	junk := append([]byte{0x00}, bytes.Repeat([]byte{0xEE}, 19)...)
	for i := 0; i < 6; i++ {
		if err := rigs[1].radio.Send(junk, len(junk)*8); err != nil {
			t.Fatal(err)
		}
	}
	rigs[0].originate(t, []byte("patient"))
	eng.Run()
	st := rigs[1].relay.Stats()
	if st.Congested != 0 || st.Forwarded != 1 {
		t.Errorf("negative MaxQueue should disable the guard: %+v", st)
	}
}

func TestRelayValidation(t *testing.T) {
	eng := sim.NewEngine()
	src := xrand.NewSource(9).Child("val")
	disk := radio.NewUnitDisk(6)
	med := radio.NewMedium(eng, disk, radio.DefaultParams(), src.Stream("m"))
	r := med.MustAttach(0)
	if _, err := NewRelay(RelayConfig{Keyer: DigestKeyer()}, nil, r, src.Stream("r")); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := NewRelay(RelayConfig{}, eng, r, src.Stream("r")); err == nil {
		t.Error("nil keyer accepted")
	}
	if _, err := NewRelay(RelayConfig{TTL: MaxTTL + 1, Keyer: DigestKeyer()}, eng, r, src.Stream("r")); err == nil {
		t.Error("oversize ttl accepted")
	}
}

// TestAFFKeyerMixedWidthKeys is the composite-key property at the unit
// level: the same raw identifier at different in-band widths must map to
// distinct dedup keys, while repeats of the same (width, id, position)
// must collide exactly.
func TestAFFKeyerMixedWidthKeys(t *testing.T) {
	affCfg := aff.Config{Space: core.MustSpace(16), MTU: 27, AdaptiveWidth: true}
	keyer := AFFKeyer(affCfg)
	codec := frame.Codec{IDBits: 16, InBandWidth: true}
	intro := func(width int, id uint64) RelayKey {
		c := codec
		c.IDBits = width
		buf, _, err := c.EncodeIntro(frame.Intro{ID: id, TotalLen: 48, Checksum: 7})
		if err != nil {
			t.Fatal(err)
		}
		k, ok := keyer(buf)
		if !ok {
			t.Fatalf("intro at width %d unkeyed", width)
		}
		return k
	}
	data := func(width int, id uint64, off int) RelayKey {
		c := codec
		c.IDBits = width
		buf, _, err := c.EncodeData(frame.Data{ID: id, Offset: off, Payload: []byte{1, 2, 3}})
		if err != nil {
			t.Fatal(err)
		}
		k, ok := keyer(buf)
		if !ok {
			t.Fatalf("data at width %d unkeyed", width)
		}
		return k
	}

	cases := []struct {
		name     string
		a, b     RelayKey
		wantSame bool
	}{
		{"same id across widths 4/8", intro(4, 5), intro(8, 5), false},
		{"same id across widths 8/12", intro(8, 5), intro(12, 5), false},
		{"same width and id", intro(8, 5), intro(8, 5), true},
		{"intro vs first data fragment", intro(8, 5), data(8, 5, 0), false},
		{"data offsets disambiguate", data(8, 5, 0), data(8, 5, 24), false},
		{"same data fragment repeats", data(12, 9, 24), data(12, 9, 24), true},
		{"cross-width data", data(4, 5, 24), data(12, 5, 24), false},
	}
	for _, tc := range cases {
		if got := tc.a == tc.b; got != tc.wantSame {
			t.Errorf("%s: keys equal=%v, want %v (a=%+v b=%+v)", tc.name, got, tc.wantSame, tc.a, tc.b)
		}
	}

	if _, ok := keyer([]byte{0xFF, 0xFF, 0xFF}); ok {
		t.Error("undecodable inner frame keyed")
	}
}

// pinSelector always draws the same identifier — the adversarial choice
// for collision tests.
type pinSelector struct {
	space core.Space
	id    uint64
}

func (s pinSelector) Next() uint64              { return s.id }
func (s pinSelector) NextWidth(bits int) uint64 { return s.id }
func (s pinSelector) Observe(uint64)            {}
func (s pinSelector) ObserveWidth(int, uint64)  {}
func (s pinSelector) Space() core.Space         { return s.space }
func (s pinSelector) Name() string              { return "pin" }

// mixedWidthRig wires a full AFF stack (fragmenter, reassembler, relay)
// on one radio for the end-to-end mixed-width tests.
func mixedWidthRig(t *testing.T, eng *sim.Engine, med *radio.Medium, id radio.NodeID,
	affCfg aff.Config, rcfg RelayConfig, width int, pinID uint64, src *xrand.Source) (*node.AFFDriver, *Relay, *[][]byte) {
	t.Helper()
	r := med.MustAttach(id)
	rcfg.Keyer = AFFKeyer(affCfg)
	rl, err := NewRelay(rcfg, eng, r, src.Stream("relay", fmt.Sprint(id)))
	if err != nil {
		t.Fatal(err)
	}
	opts := node.AFFOptions{Engine: eng, Relay: rl}
	if width > 0 {
		opts.Width = widthPin(width)
	}
	d, err := node.NewAFF(r, affCfg, pinSelector{space: affCfg.Space, id: pinID}, opts)
	if err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	d.SetPacketHandler(func(p []byte) { got = append(got, append([]byte(nil), p...)) })
	return d, rl, &got
}

type widthPin int

func (w widthPin) Bits() int { return int(w) }

// TestMixedWidthRelayNeverMisdelivers is the end-to-end composite-key
// property: two senders pin the SAME raw identifier at different widths
// and reach the receiver only through a relay. The (width, id) composite
// must keep their fragments apart — both packets arrive intact — while
// the same (width, id) is deduped as a copy, the paper's silent loss.
// Several send rounds spaced past the dedup window ride out one-shot
// CSMA backoff collisions without weakening either property: within
// every round B transmits inside the window A's keys opened.
func TestMixedWidthRelayNeverMisdelivers(t *testing.T) {
	for _, tc := range []struct {
		name           string
		widthA, widthB int
		wantB          bool // does B's packet survive?
	}{
		{"widths 4 and 12 never suppress", 4, 12, true},
		{"widths 6 and 10 never suppress", 6, 10, true},
		// Same width and id is the paper's silent loss: the relay dedups
		// B's fragments as copies of A's.
		{"same width collides", 8, 8, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			src := xrand.NewSource(11).Child("mixed", tc.name)
			disk := radio.NewUnitDisk(6)
			med := radio.NewMedium(eng, disk, radio.DefaultParams(), src.Stream("m"))
			affCfg := aff.Config{Space: core.MustSpace(16), MTU: radio.DefaultParams().MTU, AdaptiveWidth: true}
			rcfg := RelayConfig{TTL: 3, DedupWindow: time.Second}

			// Senders 1 and 2 sit together, the receiver is two hops out:
			// only the relay at node 3 connects them.
			disk.Place(1, radio.Point{X: 0})
			disk.Place(2, radio.Point{X: 0, Y: 1})
			disk.Place(3, radio.Point{X: 5})
			disk.Place(4, radio.Point{X: 10})
			const pinned = 5
			a, _, _ := mixedWidthRig(t, eng, med, 1, affCfg, rcfg, tc.widthA, pinned, src)
			b, _, _ := mixedWidthRig(t, eng, med, 2, affCfg, rcfg, tc.widthB, pinned, src)
			_, relay3, _ := mixedWidthRig(t, eng, med, 3, affCfg, rcfg, 0, pinned, src)
			_, _, got := mixedWidthRig(t, eng, med, 4, affCfg, rcfg, 0, pinned, src)

			pa := bytes.Repeat([]byte{0xAA}, 48)
			pb := bytes.Repeat([]byte{0xBB}, 48)
			for round := 0; round < 5; round++ {
				at := time.Duration(round) * 2 * time.Second
				eng.ScheduleAt(at, func() {
					if err := a.SendPacket(pa); err != nil {
						t.Error(err)
					}
				})
				// B sends while A's fragments are fresh in every dedup
				// table, so same-key suppression would bite.
				eng.ScheduleAt(at+50*time.Millisecond, func() {
					if err := b.SendPacket(pb); err != nil {
						t.Error(err)
					}
				})
			}
			eng.Run()

			var gotA, gotB bool
			for _, p := range *got {
				switch {
				case bytes.Equal(p, pa):
					gotA = true
				case bytes.Equal(p, pb):
					gotB = true
				default:
					t.Errorf("receiver delivered a packet nobody sent: %x", p[:8])
				}
			}
			if !gotA {
				t.Error("receiver missed sender A's packet")
			}
			if gotB != tc.wantB {
				t.Errorf("receiver got B's packet = %v, want %v", gotB, tc.wantB)
			}
			if relay3.Stats().Forwarded == 0 {
				t.Error("relay never forwarded")
			}
			if !tc.wantB && relay3.Stats().Suppressed == 0 {
				t.Error("same-key fragments were never suppressed")
			}
		})
	}
}

// FuzzRelayEnvelope throws arbitrary bytes at the receive path: the relay
// must never panic, and whatever StripEnvelope accepts must round-trip
// through the wrap side.
func FuzzRelayEnvelope(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x30})
	f.Add([]byte{0x30, 0xDE, 0xAD, 0xBE, 0xEF})
	f.Add(bytes.Repeat([]byte{0xFF}, 30))
	f.Fuzz(func(t *testing.T, payload []byte) {
		eng := sim.NewEngine()
		src := xrand.NewSource(7).Child("fuzz")
		disk := radio.NewUnitDisk(6)
		med := radio.NewMedium(eng, disk, radio.DefaultParams(), src.Stream("m"))
		r := med.MustAttach(0)
		rl, err := NewRelay(RelayConfig{TTL: 3, Keyer: DigestKeyer()}, eng, r, src.Stream("r"))
		if err != nil {
			t.Fatal(err)
		}
		inner, deliver := rl.UnwrapIncoming(radio.Frame{Payload: payload, Bits: len(payload) * 8})
		stripped, ok := StripEnvelope(payload)
		if deliver != ok {
			t.Fatalf("UnwrapIncoming deliver=%v but StripEnvelope ok=%v", deliver, ok)
		}
		if deliver && !bytes.Equal(inner, stripped) {
			t.Fatalf("inner %x != stripped %x", inner, stripped)
		}
		if ok {
			// Re-wrap what we stripped: the inner bytes must survive.
			wrapped, _ := rl.WrapOutgoing(stripped, len(stripped)*8)
			again, ok2 := StripEnvelope(wrapped)
			if !ok2 || !bytes.Equal(again, stripped) {
				t.Fatalf("re-wrap round trip failed: %x -> %x", stripped, again)
			}
		}
		eng.Run()
	})
}
