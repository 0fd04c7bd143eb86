package arq

import (
	"bytes"
	"testing"
	"time"

	"retri/internal/aff"
	"retri/internal/core"
	"retri/internal/node"
	"retri/internal/radio"
	"retri/internal/sim"
	"retri/internal/staticaddr"
	"retri/internal/xrand"
)

// rig is a two-role test network: one engine, one medium.
type rig struct {
	eng *sim.Engine
	med *radio.Medium
}

func newRig(t testing.TB, p radio.Params) *rig {
	t.Helper()
	eng := sim.NewEngine()
	rng := xrand.NewSource(17).Stream("arq-test", t.Name())
	return &rig{eng: eng, med: radio.NewMedium(eng, radio.FullMesh{}, p, rng)}
}

func (r *rig) affNode(t testing.TB, id radio.NodeID, bits int) *node.AFFDriver {
	t.Helper()
	cfg := aff.Config{Space: core.MustSpace(bits), MTU: 27, ReassemblyTimeout: time.Second}
	rad := r.med.MustAttach(id)
	sel := core.NewUniformSelector(cfg.Space, xrand.NewSource(uint64(id)).Stream("sel", t.Name()))
	d, err := node.NewAFF(rad, cfg, sel, node.AFFOptions{Engine: r.eng})
	if err != nil {
		t.Fatalf("NewAFF(%d): %v", id, err)
	}
	return d
}

func (r *rig) endpoint(t testing.TB, d node.Driver, token uint32, cfg Config) *Endpoint {
	t.Helper()
	rng := xrand.NewSource(uint64(token)).Stream("jitter", t.Name())
	e, err := NewEndpoint(r.eng, d, token, cfg, rng)
	if err != nil {
		t.Fatalf("NewEndpoint(%d): %v", token, err)
	}
	return e
}

func payload(seq, n int) []byte {
	p := bytes.Repeat([]byte{byte(seq)}, n)
	p[0] = byte(seq >> 8)
	return p
}

func TestReliableDeliveryUnderLoss(t *testing.T) {
	p := radio.DefaultParams()
	p.FrameLoss = 0.2
	r := newRig(t, p)
	sender := r.endpoint(t, r.affNode(t, 1, 16), 1, Config{Reliable: true})
	sink := r.endpoint(t, r.affNode(t, 2, 16), 0, Config{Ack: true})

	got := make(map[uint32][]byte)
	sink.SetDeliver(func(token, seq uint32, pl []byte) {
		if token != 1 {
			t.Errorf("delivery from unknown token %d", token)
		}
		got[seq] = append([]byte(nil), pl...)
	})

	const n = 20
	for i := 0; i < n; i++ {
		at := time.Duration(i) * 50 * time.Millisecond
		i := i
		r.eng.ScheduleAt(at, func() {
			if _, err := sender.Send(payload(i, 12)); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		})
	}
	r.eng.Run()

	for i := 0; i < n; i++ {
		if want := payload(i, 12); !bytes.Equal(got[uint32(i)], want) {
			t.Errorf("seq %d: got %x, want %x", i, got[uint32(i)], want)
		}
	}
	sc, kc := sender.Counters(), sink.Counters()
	if sc.Acked != n || sender.Outstanding() != 0 {
		t.Errorf("Acked = %d (outstanding %d), want all %d confirmed", sc.Acked, sender.Outstanding(), n)
	}
	if sc.Retransmits == 0 {
		t.Error("20% frame loss produced no retransmissions; test is vacuous")
	}
	// The fresh-identifier invariant: the radio never went down, so every
	// retransmission hit the air under a new identifier.
	if sc.RepeatedIDs != 0 {
		t.Errorf("RepeatedIDs = %d, want 0 by construction", sc.RepeatedIDs)
	}
	if sc.FreshIDs != sc.Retransmits {
		t.Errorf("FreshIDs = %d, Retransmits = %d: every airborne retry must redraw", sc.FreshIDs, sc.Retransmits)
	}
	if kc.Delivered != n {
		t.Errorf("sink Delivered = %d, want %d unique", kc.Delivered, n)
	}
	if kc.AcksSent < n {
		t.Errorf("AcksSent = %d, want at least one per packet", kc.AcksSent)
	}
}

func TestFreshIDInvariantInTinySpace(t *testing.T) {
	// A 2-bit identifier space maximizes redraw pressure: even here a
	// retransmission must never reuse the previous attempt's identifier.
	p := radio.DefaultParams()
	p.FrameLoss = 0.5
	r := newRig(t, p)
	sender := r.endpoint(t, r.affNode(t, 1, 2), 1, Config{Reliable: true, RetryBudget: 4})
	r.endpoint(t, r.affNode(t, 2, 2), 0, Config{Ack: true})

	for i := 0; i < 10; i++ {
		i := i
		r.eng.ScheduleAt(time.Duration(i)*200*time.Millisecond, func() {
			if _, err := sender.Send(payload(i, 8)); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		})
	}
	r.eng.Run()

	c := sender.Counters()
	if c.Retransmits == 0 {
		t.Fatal("50% loss produced no retransmissions")
	}
	if c.RepeatedIDs != 0 {
		t.Errorf("RepeatedIDs = %d in a 2-bit space, want 0 by construction", c.RepeatedIDs)
	}
	if c.FreshIDs == 0 {
		t.Error("no retransmission drew a fresh identifier")
	}
}

func TestRetryBudgetAbandons(t *testing.T) {
	r := newRig(t, radio.DefaultParams())
	sender := r.endpoint(t, r.affNode(t, 1, 16), 1, Config{Reliable: true, RetryBudget: 3})
	// The sink hears and delivers but never acknowledges (Ack off):
	// the sender must exhaust its budget and degrade gracefully.
	sink := r.endpoint(t, r.affNode(t, 2, 16), 0, Config{})

	for i := 0; i < 2; i++ {
		if _, err := sender.Send(payload(i, 8)); err != nil {
			t.Fatal(err)
		}
	}
	r.eng.Run()

	c := sender.Counters()
	if c.Abandoned != 2 {
		t.Errorf("Abandoned = %d, want 2", c.Abandoned)
	}
	if c.Acked != 0 {
		t.Errorf("Acked = %d with a mute receiver", c.Acked)
	}
	if c.Retransmits != 2*3 {
		t.Errorf("Retransmits = %d, want budget × packets = 6", c.Retransmits)
	}
	if sender.Outstanding() != 0 {
		t.Errorf("Outstanding = %d after abandonment, state leak", sender.Outstanding())
	}
	if sink.Counters().Delivered != 2 {
		t.Errorf("mute sink still delivers data: got %d, want 2", sink.Counters().Delivered)
	}
}

// windowLoss drops every frame from one node before a cutoff time.
type windowLoss struct {
	from  radio.NodeID
	until time.Duration
}

func (w windowLoss) Drop(from, _ radio.NodeID, at time.Duration) bool {
	return from == w.from && at < w.until
}

func TestNackRecoversGapBeforeTimeout(t *testing.T) {
	p := radio.DefaultParams()
	p.Loss = windowLoss{from: 1, until: 50 * time.Millisecond}
	r := newRig(t, p)
	// RTO far out: if sequence 0 arrives quickly it was the NACK path.
	sender := r.endpoint(t, r.affNode(t, 1, 16), 1, Config{Reliable: true, RTO: 10 * time.Second, MaxRTO: 20 * time.Second})
	sink := r.endpoint(t, r.affNode(t, 2, 16), 0, Config{Ack: true})

	var deliveredAt []time.Duration
	sink.SetDeliver(func(_, seq uint32, _ []byte) {
		deliveredAt = append(deliveredAt, r.eng.Now())
	})

	if _, err := sender.Send(payload(0, 8)); err != nil { // lost in the window
		t.Fatal(err)
	}
	r.eng.ScheduleAt(100*time.Millisecond, func() {
		if _, err := sender.Send(payload(1, 8)); err != nil { // arrives, exposes the gap
			t.Error(err)
		}
	})
	r.eng.Run()

	if len(deliveredAt) != 2 {
		t.Fatalf("delivered %d packets, want both", len(deliveredAt))
	}
	for _, at := range deliveredAt {
		if at >= 10*time.Second {
			t.Errorf("delivery at %v waited for the retry timer; NACK should have recovered it", at)
		}
	}
	if nacks := sink.Counters().NacksSent; nacks != 1 {
		t.Errorf("NacksSent = %d, want exactly one per missing sequence", nacks)
	}
	if c := sender.Counters(); c.Retransmits != 1 || c.Acked != 2 {
		t.Errorf("sender counters %+v, want 1 NACK-driven retransmit and 2 acks", c)
	}
}

func TestDuplicateDataReAcknowledged(t *testing.T) {
	p := radio.DefaultParams()
	p.Loss = windowLoss{from: 2, until: time.Second} // sink's ACKs lost early
	r := newRig(t, p)
	sender := r.endpoint(t, r.affNode(t, 1, 16), 1, Config{Reliable: true, RTO: 400 * time.Millisecond})
	sink := r.endpoint(t, r.affNode(t, 2, 16), 0, Config{Ack: true})

	if _, err := sender.Send(payload(0, 8)); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()

	kc := sink.Counters()
	if kc.Delivered != 1 {
		t.Errorf("Delivered = %d, want the duplicate suppressed to 1", kc.Delivered)
	}
	if kc.Duplicates == 0 {
		t.Error("no duplicate arrivals; the lost-ACK scenario did not materialize")
	}
	if kc.AcksSent < 2 {
		t.Errorf("AcksSent = %d, want re-acknowledgement of duplicates", kc.AcksSent)
	}
	if c := sender.Counters(); c.Acked != 1 {
		t.Errorf("Acked = %d, want eventual confirmation", c.Acked)
	}
}

func TestMalformedPacketsCounted(t *testing.T) {
	r := newRig(t, radio.DefaultParams())
	peer := r.affNode(t, 1, 16)
	sink := r.endpoint(t, r.affNode(t, 2, 16), 0, Config{Ack: true})

	// Too short for the header, and a well-framed packet of unknown kind.
	if err := peer.SendPacket([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := peer.SendPacket(encode(nil, 9, 7, 7, []byte("?"))); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()

	c := sink.Counters()
	if c.Malformed != 2 {
		t.Errorf("Malformed = %d, want 2", c.Malformed)
	}
	if c.Delivered != 0 {
		t.Errorf("Delivered = %d for garbage traffic", c.Delivered)
	}
}

func TestStaticTransportNoIdentifierCounters(t *testing.T) {
	// The static stack has no identifier to redraw; ARQ still delivers
	// reliably and the identifier counters stay untouched.
	p := radio.DefaultParams()
	p.FrameLoss = 0.2
	r := newRig(t, p)
	scfg := func(id radio.NodeID, addr uint64) node.Driver {
		d, err := node.NewStatic(r.med.MustAttach(id), staticConfig(), addr)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	sender := r.endpoint(t, scfg(1, 100), 1, Config{Reliable: true})
	sink := r.endpoint(t, scfg(2, 200), 0, Config{Ack: true})

	const n = 10
	for i := 0; i < n; i++ {
		i := i
		r.eng.ScheduleAt(time.Duration(i)*100*time.Millisecond, func() {
			if _, err := sender.Send(payload(i, 12)); err != nil {
				t.Error(err)
			}
		})
	}
	r.eng.Run()

	c := sender.Counters()
	if c.Acked != n {
		t.Errorf("Acked = %d, want %d", c.Acked, n)
	}
	if c.Retransmits == 0 {
		t.Error("lossy static run produced no retransmissions")
	}
	if c.FreshIDs != 0 || c.RepeatedIDs != 0 {
		t.Errorf("identifier counters (%d, %d) moved on a static transport", c.FreshIDs, c.RepeatedIDs)
	}
	if sink.Counters().Delivered != n {
		t.Errorf("Delivered = %d, want %d", sink.Counters().Delivered, n)
	}
}

func TestRetryRidesOverCrash(t *testing.T) {
	// ARQ state is durable: a send attempted while the node is down fails
	// (SendErrors), but the retry timer keeps going and delivers after the
	// restart — the recovery experiment's core scenario in miniature.
	r := newRig(t, radio.DefaultParams())
	drv := r.affNode(t, 1, 16)
	sender := r.endpoint(t, drv, 1, Config{Reliable: true})
	sink := r.endpoint(t, r.affNode(t, 2, 16), 0, Config{Ack: true})

	drv.Crash()
	if _, err := sender.Send(payload(0, 8)); err != nil {
		t.Fatal(err)
	}
	r.eng.ScheduleAt(2*time.Second, drv.Restart)
	r.eng.Run()

	c := sender.Counters()
	if c.SendErrors == 0 {
		t.Error("sends while crashed did not count as SendErrors")
	}
	if c.Acked != 1 {
		t.Errorf("Acked = %d, want delivery after restart", c.Acked)
	}
	if c.RepeatedIDs != 0 {
		t.Errorf("RepeatedIDs = %d, want 0", c.RepeatedIDs)
	}
	if sink.Counters().Delivered != 1 {
		t.Errorf("sink Delivered = %d, want 1", sink.Counters().Delivered)
	}
}

func TestCountersFold(t *testing.T) {
	a := Counters{DataSent: 1, Retransmits: 2, Acked: 3, Abandoned: 4, AcksSent: 5, NacksSent: 6,
		Delivered: 7, Duplicates: 8, FreshIDs: 9, RepeatedIDs: 10, SendErrors: 11, Malformed: 12}
	b := a
	b.Add(a)
	want := Counters{DataSent: 2, Retransmits: 4, Acked: 6, Abandoned: 8, AcksSent: 10, NacksSent: 12,
		Delivered: 14, Duplicates: 16, FreshIDs: 18, RepeatedIDs: 20, SendErrors: 22, Malformed: 24}
	if b != want {
		t.Errorf("Add = %+v, want %+v", b, want)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{RTO: -time.Second},
		{RTO: 2 * time.Second, MaxRTO: time.Second},
		{Backoff: 0.5},
		{Jitter: -0.1},
		{Jitter: 1},
		{RetryBudget: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d (%+v) accepted", i, c)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
}

func TestNewEndpointErrors(t *testing.T) {
	r := newRig(t, radio.DefaultParams())
	d := r.affNode(t, 1, 16)
	rng := xrand.NewSource(1).Stream("e")
	if _, err := NewEndpoint(nil, d, 1, Config{}, rng); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := NewEndpoint(r.eng, nil, 1, Config{}, rng); err == nil {
		t.Error("nil driver accepted")
	}
	if _, err := NewEndpoint(r.eng, d, 1, Config{Reliable: true}, nil); err == nil {
		t.Error("reliable endpoint with default jitter accepted without a random stream")
	}
	if _, err := NewEndpoint(r.eng, d, 1, Config{RTO: -1}, rng); err == nil {
		t.Error("invalid config accepted")
	}
	e, err := NewEndpoint(r.eng, d, 1, Config{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Send(nil); err == nil {
		t.Error("empty payload accepted")
	}
	if e.Token() != 1 {
		t.Errorf("Token = %d", e.Token())
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 40} {
		pl := bytes.Repeat([]byte{0xC3}, n)
		kind, token, seq, got, ok := decode(encode(nil, kindData, 7, 9, pl))
		if !ok || kind != kindData || token != 7 || seq != 9 || !bytes.Equal(got, pl) {
			t.Errorf("round trip failed for %d-byte payload", n)
		}
	}
	for short := 0; short < headerLen; short++ {
		if _, _, _, _, ok := decode(make([]byte, short)); ok {
			t.Errorf("%d-byte packet decoded", short)
		}
	}
}

func staticConfig() staticaddr.Config {
	return staticaddr.Config{AddrBits: 16, MTU: 27, ReassemblyTimeout: time.Second}
}

// gate drops node 1's frames while shut.
type gate struct{ shut bool }

func (g *gate) Drop(from, _ radio.NodeID, _ time.Duration) bool { return g.shut && from == 1 }

// roundTrip is a reliable sender and an acknowledging sink. Each call of
// cycle sends one 40-byte packet and runs until its ACK returns; with
// retry, its first attempt is lost, so a timer-driven retransmission
// delivers it.
func roundTrip(tb testing.TB, retry bool) (cycle func(), sender, sink *Endpoint) {
	p := radio.DefaultParams()
	g := &gate{}
	p.Loss = g
	r := newRig(tb, p)
	sender = r.endpoint(tb, r.affNode(tb, 1, 16), 1, Config{Reliable: true})
	sink = r.endpoint(tb, r.affNode(tb, 2, 16), 0, Config{Ack: true})
	pl := payload(1, 40)
	cycle = func() {
		g.shut = retry
		if _, err := sender.Send(pl); err != nil {
			tb.Fatal(err)
		}
		if retry {
			r.eng.RunFor(100 * time.Millisecond) // the first attempt airs and is lost
			g.shut = false
		}
		r.eng.Run()
	}
	return cycle, sender, sink
}

// TestWarmRoundTripAllocatesNothing: once warm, a send, a timer-driven
// retransmission of its lost first attempt and the ACK that confirms it
// reuse the endpoint's packet state, buffers and timer callback, and the
// sink's dedupe state.
func TestWarmRoundTripAllocatesNothing(t *testing.T) {
	cycle, sender, sink := roundTrip(t, true)
	for i := 0; i < 4; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("a warm lost-then-retried round trip allocated %.1f times, want 0", allocs)
	}
	// AllocsPerRun makes one extra warm-up call: 4 + 51 cycles.
	const cycles = 55
	if c := sender.Counters(); c.Acked != cycles || c.Retransmits != cycles || sender.Outstanding() != 0 {
		t.Fatalf("after %d cycles: sender %+v, %d outstanding", cycles, c, sender.Outstanding())
	}
	if c := sink.Counters(); c.Delivered != cycles || c.AcksSent != cycles {
		t.Fatalf("after %d cycles: sink %+v", cycles, c)
	}
}

// BenchmarkARQRoundTrip is one reliable packet through the ARQ layer and
// the AFF stack below it: send, reassembly at the sink, and the ACK back.
func BenchmarkARQRoundTrip(b *testing.B) {
	cycle, sender, _ := roundTrip(b, false)
	cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	if c := sender.Counters(); c.Acked != int64(b.N)+1 || c.Retransmits != 0 {
		b.Fatalf("%d round trips: sender %+v", b.N+1, c)
	}
}

// TestSendCopiesPayload: the caller may reuse its buffer once Send
// returns; retransmissions still carry what was sent.
func TestSendCopiesPayload(t *testing.T) {
	p := radio.DefaultParams()
	p.Loss = windowLoss{from: 1, until: 100 * time.Millisecond}
	r := newRig(t, p)
	sender := r.endpoint(t, r.affNode(t, 1, 16), 1, Config{Reliable: true})
	sink := r.endpoint(t, r.affNode(t, 2, 16), 0, Config{Ack: true})
	var got []byte
	sink.SetDeliver(func(_, _ uint32, pl []byte) { got = append([]byte(nil), pl...) })
	buf := payload(7, 20)
	want := append([]byte(nil), buf...)
	if _, err := sender.Send(buf); err != nil {
		t.Fatal(err)
	}
	clear(buf)
	r.eng.Run()
	if sender.Counters().Retransmits == 0 || !bytes.Equal(got, want) {
		t.Fatalf("after %d retransmits delivered %x, want %x", sender.Counters().Retransmits, got, want)
	}
}

// TestRxStateMatchesSets drives the receiver's dedupe state with arrivals
// that run mostly in order, leave gaps that never fill, repeat old
// sequences and, as a damaged header can, name sequences far out; it
// must answer as plain sets of every delivered and NACKed sequence do.
func TestRxStateMatchesSets(t *testing.T) {
	rng := xrand.NewSource(3).Stream("rx")
	var r rxState
	delivered, nacked := map[uint32]bool{}, map[uint32]bool{}
	top := uint32(0)
	for step := 0; step < 100_000; step++ {
		var seq uint32
		switch k := rng.IntN(100); {
		case k < 2:
			seq = rng.Uint32()
		case k < 10 && top > 0:
			seq = rng.Uint32N(top)
		default:
			seq = top + rng.Uint32N(3)
			top = seq + 1
		}
		if got := r.isDelivered(seq); got != delivered[seq] {
			t.Fatalf("step %d: delivered(%d) = %v, want %v", step, seq, got, delivered[seq])
		}
		if !delivered[seq] {
			delivered[seq] = true
			r.deliver(seq)
		}
		if miss := r.next + rng.Uint32N(8); !delivered[miss] {
			if got := r.nacked.has(miss); got != nacked[miss] {
				t.Fatalf("step %d: nacked(%d) = %v, want %v", step, miss, got, nacked[miss])
			}
			nacked[miss] = true
			r.nacked.add(miss)
		}
	}
	for seq := range delivered {
		if !r.isDelivered(seq) {
			t.Fatalf("delivered sequence %d forgotten", seq)
		}
	}
	if top < seqSpan || len(r.delivered.far) == 0 {
		t.Fatalf("top %d, %d far entries: the run never left the bit window", top, len(r.delivered.far))
	}
}
