package radio

import (
	"errors"
	"testing"
	"time"

	"retri/internal/sim"
	"retri/internal/xrand"
)

// newTestMedium builds a medium with handy defaults for tests.
func newTestMedium(t *testing.T, topo Topology, p Params) (*sim.Engine, *Medium) {
	t.Helper()
	eng := sim.NewEngine()
	rng := xrand.NewSource(1).Stream("radio-test", t.Name())
	return eng, NewMedium(eng, topo, p, rng)
}

func TestSimpleDelivery(t *testing.T) {
	eng, m := newTestMedium(t, FullMesh{}, DefaultParams())
	a := m.MustAttach(1)
	b := m.MustAttach(2)
	var got []byte
	b.SetHandler(func(f Frame) { got = append([]byte{}, f.Payload...) })
	if err := a.Send([]byte("hello"), 0); err != nil {
		t.Fatalf("Send: %v", err)
	}
	eng.Run()
	if string(got) != "hello" {
		t.Errorf("received %q, want %q", got, "hello")
	}
	c := m.Counters()
	if c.Sent != 1 || c.Delivered != 1 {
		t.Errorf("counters = %+v, want Sent=1 Delivered=1", c)
	}
}

func TestBroadcastReachesAllInRange(t *testing.T) {
	eng, m := newTestMedium(t, FullMesh{}, DefaultParams())
	a := m.MustAttach(1)
	heard := make(map[NodeID]bool)
	for id := NodeID(2); id <= 5; id++ {
		id := id
		m.MustAttach(id).SetHandler(func(Frame) { heard[id] = true })
	}
	if err := a.Send([]byte{0xAB}, 0); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(heard) != 4 {
		t.Errorf("heard by %d receivers, want 4", len(heard))
	}
	if heard[1] {
		t.Error("sender heard its own frame")
	}
}

func TestTopologyLimitsDelivery(t *testing.T) {
	g := NewGraph()
	g.SetLink(1, 2, true)
	eng, m := newTestMedium(t, g, DefaultParams())
	a := m.MustAttach(1)
	b := m.MustAttach(2)
	c := m.MustAttach(3)
	var bGot, cGot int
	b.SetHandler(func(Frame) { bGot++ })
	c.SetHandler(func(Frame) { cGot++ })
	if err := a.Send([]byte{1}, 0); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if bGot != 1 || cGot != 0 {
		t.Errorf("b=%d c=%d, want 1, 0", bGot, cGot)
	}
}

func TestFrameTooLarge(t *testing.T) {
	_, m := newTestMedium(t, FullMesh{}, DefaultParams())
	a := m.MustAttach(1)
	err := a.Send(make([]byte, 28), 0)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("Send oversized frame err = %v, want ErrFrameTooLarge", err)
	}
}

func TestDuplicateAttach(t *testing.T) {
	_, m := newTestMedium(t, FullMesh{}, DefaultParams())
	if _, err := m.Attach(1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Attach(1); !errors.Is(err, ErrDuplicateNode) {
		t.Errorf("second Attach err = %v, want ErrDuplicateNode", err)
	}
	if m.Radio(1) == nil {
		t.Error("Radio(1) = nil after attach")
	}
	if m.Radio(9) != nil {
		t.Error("Radio(9) != nil for unattached id")
	}
}

func TestSendWhileDown(t *testing.T) {
	_, m := newTestMedium(t, FullMesh{}, DefaultParams())
	a := m.MustAttach(1)
	a.SetUp(false)
	if err := a.Send([]byte{1}, 0); !errors.Is(err, ErrRadioDown) {
		t.Errorf("Send while down err = %v, want ErrRadioDown", err)
	}
}

func TestDownReceiverMissesFrame(t *testing.T) {
	eng, m := newTestMedium(t, FullMesh{}, DefaultParams())
	a := m.MustAttach(1)
	b := m.MustAttach(2)
	got := 0
	b.SetHandler(func(Frame) { got++ })
	b.SetUp(false)
	if err := a.Send([]byte{1}, 0); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got != 0 {
		t.Error("down receiver got a frame")
	}
	if m.Counters().NotHeard != 1 {
		t.Errorf("NotHeard = %d, want 1", m.Counters().NotHeard)
	}
}

func TestNotListeningMissesFrame(t *testing.T) {
	eng, m := newTestMedium(t, FullMesh{}, DefaultParams())
	a := m.MustAttach(1)
	b := m.MustAttach(2)
	got := 0
	b.SetHandler(func(Frame) { got++ })
	b.SetListening(false)
	if err := a.Send([]byte{1}, 0); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got != 0 {
		t.Error("non-listening receiver got a frame")
	}
}

func TestALOHACollision(t *testing.T) {
	p := DefaultParams()
	p.Access = ALOHA
	eng, m := newTestMedium(t, FullMesh{}, p)
	a := m.MustAttach(1)
	b := m.MustAttach(2)
	c := m.MustAttach(3)
	got := 0
	c.SetHandler(func(Frame) { got++ })
	// Two simultaneous ALOHA transmissions of equal length collide at C.
	if err := a.Send([]byte{1, 2, 3}, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Send([]byte{4, 5, 6}, 0); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got != 0 {
		t.Errorf("receiver decoded %d frames out of a collision", got)
	}
	if m.Counters().Collided == 0 {
		t.Error("no collisions counted")
	}
}

func TestCSMADefersSecondSender(t *testing.T) {
	eng, m := newTestMedium(t, FullMesh{}, DefaultParams())
	a := m.MustAttach(1)
	b := m.MustAttach(2)
	c := m.MustAttach(3)
	got := 0
	c.SetHandler(func(Frame) { got++ })
	if err := a.Send([]byte{1, 2, 3}, 0); err != nil {
		t.Fatal(err)
	}
	// B senses A's carrier (both in range of each other) and defers.
	eng.RunFor(time.Microsecond)
	if err := b.Send([]byte{4, 5, 6}, 0); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got != 2 {
		t.Errorf("receiver decoded %d frames, want 2 (CSMA should avoid the collision)", got)
	}
	if m.Counters().Backoffs == 0 {
		t.Error("no backoffs counted")
	}
}

func TestHiddenTerminalCollides(t *testing.T) {
	// A-B, C-B connected; A and C cannot carrier-sense each other, so CSMA
	// does not help and their frames collide at B (paper footnote 3).
	g := NewGraph()
	g.SetLink(1, 2, true)
	g.SetLink(3, 2, true)
	eng, m := newTestMedium(t, g, DefaultParams())
	a := m.MustAttach(1)
	b := m.MustAttach(2)
	c := m.MustAttach(3)
	got := 0
	b.SetHandler(func(Frame) { got++ })
	if err := a.Send([]byte{1, 2, 3}, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Send([]byte{4, 5, 6}, 0); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got != 0 {
		t.Errorf("B decoded %d frames despite hidden-terminal collision", got)
	}
	if m.Counters().Collided != 2 {
		t.Errorf("Collided = %d, want 2 (both frames destroyed at B)", m.Counters().Collided)
	}
}

func TestHalfDuplexMiss(t *testing.T) {
	p := DefaultParams()
	p.Access = ALOHA
	g := NewGraph()
	// A can hear B; B cannot hear... make it symmetric but time overlapped:
	// B transmits to C while A transmits to B.
	g.SetLink(1, 2, true)
	g.SetLink(2, 3, true)
	eng, m := newTestMedium(t, g, p)
	a := m.MustAttach(1)
	b := m.MustAttach(2)
	m.MustAttach(3)
	got := 0
	b.SetHandler(func(Frame) { got++ })
	if err := a.Send([]byte{1, 2, 3}, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Send([]byte{9, 9, 9}, 0); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got != 0 {
		t.Errorf("B received while transmitting: got %d", got)
	}
	// Two misses: A's frame at B (B was transmitting), and B's frame at A
	// (A was transmitting). C still receives B's frame cleanly.
	if m.Counters().HalfDuplex != 2 {
		t.Errorf("HalfDuplex = %d, want 2", m.Counters().HalfDuplex)
	}
}

func TestRandomLoss(t *testing.T) {
	p := DefaultParams()
	p.FrameLoss = 0.5
	eng, m := newTestMedium(t, FullMesh{}, p)
	a := m.MustAttach(1)
	b := m.MustAttach(2)
	got := 0
	b.SetHandler(func(Frame) { got++ })
	const n = 400
	for i := 0; i < n; i++ {
		if err := a.Send([]byte{byte(i)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if got < n/4 || got > 3*n/4 {
		t.Errorf("delivered %d/%d with 50%% loss, want roughly half", got, n)
	}
	if int(m.Counters().RandomLoss)+got != n {
		t.Errorf("RandomLoss (%d) + delivered (%d) != sent (%d)",
			m.Counters().RandomLoss, got, n)
	}
}

func TestQueueTransmitsInOrder(t *testing.T) {
	eng, m := newTestMedium(t, FullMesh{}, DefaultParams())
	a := m.MustAttach(1)
	b := m.MustAttach(2)
	var got []byte
	b.SetHandler(func(f Frame) { got = append(got, f.Payload[0]) })
	for i := byte(0); i < 10; i++ {
		if err := a.Send([]byte{i}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if a.QueueLen() == 0 {
		t.Error("queue empty immediately after burst of sends")
	}
	eng.Run()
	if len(got) != 10 {
		t.Fatalf("received %d frames, want 10", len(got))
	}
	for i := byte(0); i < 10; i++ {
		if got[i] != i {
			t.Fatalf("frames out of order: %v", got)
		}
	}
	if !a.Idle() {
		t.Error("radio not idle after draining queue")
	}
}

func TestAirtimeScalesWithBits(t *testing.T) {
	_, m := newTestMedium(t, FullMesh{}, DefaultParams())
	short := m.AirtimeOf(8)
	long := m.AirtimeOf(216)
	if long <= short {
		t.Errorf("airtime(216 bits)=%v should exceed airtime(8 bits)=%v", long, short)
	}
	// 27 bytes + 40 bits overhead at 40kbps = 256/40000 s = 6.4ms.
	want := time.Duration(256.0 / 40e3 * float64(time.Second))
	if got := m.AirtimeOf(216); got != want {
		t.Errorf("AirtimeOf(216) = %v, want %v", got, want)
	}
}

func TestEnergyAccounting(t *testing.T) {
	eng, m := newTestMedium(t, FullMesh{}, DefaultParams())
	a := m.MustAttach(1)
	b := m.MustAttach(2)
	b.SetHandler(func(Frame) {})
	if err := a.Send([]byte{1, 2}, 0); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	eng.RunUntil(eng.Now() + time.Second)

	am, bm := a.Meter(), b.Meter()
	wantBits := int64(16 + 40) // payload + RPC overhead
	if am.TxBits != wantBits || am.TxFrames != 1 {
		t.Errorf("sender meter = %+v, want TxBits=%d", am, wantBits)
	}
	if bm.RxBits != wantBits || bm.RxFrames != 1 {
		t.Errorf("receiver meter = %+v, want RxBits=%d", bm, wantBits)
	}
	if bm.ListenFor < time.Second {
		t.Errorf("receiver ListenFor = %v, want >= 1s", bm.ListenFor)
	}
}

func TestListeningEnergyStopsWhenDisabled(t *testing.T) {
	eng, m := newTestMedium(t, FullMesh{}, DefaultParams())
	a := m.MustAttach(1)
	eng.RunUntil(time.Second)
	a.SetListening(false)
	eng.RunUntil(3 * time.Second)
	got := a.Meter().ListenFor
	if got != time.Second {
		t.Errorf("ListenFor = %v, want exactly 1s", got)
	}
	a.SetListening(true)
	eng.RunUntil(4 * time.Second)
	if got := a.Meter().ListenFor; got != 2*time.Second {
		t.Errorf("ListenFor after re-enable = %v, want 2s", got)
	}
}

func TestSetUpDropQueueAndResume(t *testing.T) {
	eng, m := newTestMedium(t, FullMesh{}, DefaultParams())
	a := m.MustAttach(1)
	b := m.MustAttach(2)
	got := 0
	b.SetHandler(func(Frame) { got++ })
	for i := 0; i < 5; i++ {
		if err := a.Send([]byte{1}, 0); err != nil {
			t.Fatal(err)
		}
	}
	a.SetUp(false)
	if a.QueueLen() != 0 {
		t.Errorf("queue not dropped on power-off: %d", a.QueueLen())
	}
	a.SetUp(true)
	if err := a.Send([]byte{7}, 0); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// The first frame was already in flight when the radio went down (the
	// simplification documented in the package); at most it and the
	// post-restart frame arrive.
	if got > 2 {
		t.Errorf("received %d frames, want <= 2 after queue drop", got)
	}
}

func TestDefaultParamsFillDefaults(t *testing.T) {
	eng := sim.NewEngine()
	rng := xrand.NewSource(1).Stream("defaults")
	m := NewMedium(eng, FullMesh{}, Params{}, rng)
	p := m.Params()
	if p.MTU != 27 || p.BitRate != 40e3 || p.Access != CSMA || p.Contention <= 0 || p.SenseDelay <= 0 {
		t.Errorf("zero Params not defaulted: %+v", p)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (Counters, time.Duration) {
		eng := sim.NewEngine()
		rng := xrand.NewSource(77).Stream("det")
		p := DefaultParams()
		p.FrameLoss = 0.3
		m := NewMedium(eng, FullMesh{}, p, rng)
		senders := make([]*Radio, 4)
		for i := range senders {
			senders[i] = m.MustAttach(NodeID(i))
		}
		sink := m.MustAttach(99)
		sink.SetHandler(func(Frame) {})
		for round := 0; round < 20; round++ {
			for _, s := range senders {
				if err := s.Send([]byte{byte(round)}, 0); err != nil {
					t.Fatal(err)
				}
			}
			eng.Run()
		}
		return m.Counters(), eng.Now()
	}
	c1, t1 := run()
	c2, t2 := run()
	if c1 != c2 || t1 != t2 {
		t.Errorf("runs diverged:\n%+v @ %v\n%+v @ %v", c1, t1, c2, t2)
	}
}

// TestSendCycleAllocatesNothing holds the per-frame path to zero heap
// allocations once warm: the transmit queue pops in place, so a burst of
// sends keeps reusing one backing array, and the popped slots are
// cleared so they pin no sent payload.
func TestSendCycleAllocatesNothing(t *testing.T) {
	eng, m := newTestMedium(t, FullMesh{}, DefaultParams())
	a := m.MustAttach(1)
	b := m.MustAttach(2)
	received := 0
	b.SetHandler(func(Frame) { received++ })
	payloads := [][]byte{[]byte("one"), []byte("two"), []byte("three")}
	cycle := func() {
		for _, p := range payloads {
			if err := a.Send(p, 0); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("send, transmit and complete allocated %.1f times per burst, want 0", allocs)
	}
	if received != 111*len(payloads) {
		t.Errorf("received %d frames, want %d", received, 111*len(payloads))
	}
	for i, f := range a.queue[:cap(a.queue)] {
		if f.Payload != nil {
			t.Errorf("vacated queue slot %d still holds payload %q", i, f.Payload)
		}
	}
}
