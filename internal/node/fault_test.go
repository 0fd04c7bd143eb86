package node

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"retri/internal/aff"
	"retri/internal/core"
	"retri/internal/faults"
	"retri/internal/oracle"
	"retri/internal/radio"
	"retri/internal/staticaddr"
	"retri/internal/truth"
	"retri/internal/xrand"
)

// dropNth loses exactly the n-th frame (1-based) sent by one node, a
// deterministic way to strand a partial reassembly at the receiver.
type dropNth struct {
	from  radio.NodeID
	n     int
	count int
}

func (d *dropNth) Drop(from, _ radio.NodeID, _ time.Duration) bool {
	if from != d.from {
		return false
	}
	d.count++
	return d.count == d.n
}

// runIdleReceiver delivers 4 of a transaction's 5 frames and then lets the
// network go silent, returning the receiver's pending-state count and
// timeout tally after the run.
func runIdleReceiver(t *testing.T, withEngine bool) (pending int, timeouts int64) {
	t.Helper()
	p := radio.DefaultParams()
	p.Loss = &dropNth{from: 1, n: 5}
	r := newRig(t, p)
	cfg := affConfig(9)
	cfg.ReassemblyTimeout = time.Second
	tx := newAFFNode(t, r, 1, cfg, AFFOptions{})
	opts := AFFOptions{}
	if withEngine {
		opts.Engine = r.eng
	}
	rx := newAFFNode(t, r, 2, cfg, opts)

	if err := tx.SendPacket(make([]byte, 80)); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	return rx.Reassembler().PendingCount(), rx.Reassembler().Stats().Timeouts
}

// TestEngineSweepShedsIdleState is the regression test for reassembly
// timeouts on idle nodes: with AFFOptions.Engine wired, a node that hears a
// partial transaction and then nothing at all must still evict the stale
// state from an engine timer.
func TestEngineSweepShedsIdleState(t *testing.T) {
	pending, timeouts := runIdleReceiver(t, true)
	if pending != 0 || timeouts != 1 {
		t.Errorf("engine-driven sweep left pending=%d timeouts=%d, want 0/1", pending, timeouts)
	}
	// Control: without the engine wiring the stale state survives the run,
	// which is exactly the leak the sweep exists to fix.
	pending, timeouts = runIdleReceiver(t, false)
	if pending != 1 || timeouts != 0 {
		t.Errorf("control run shed state anyway (pending=%d timeouts=%d); test is vacuous", pending, timeouts)
	}
}

func TestAFFCrashWipesSoftState(t *testing.T) {
	p := radio.DefaultParams()
	p.Loss = &dropNth{from: 1, n: 5}
	r := newRig(t, p)
	cfg := affConfig(9)
	cfg.ReassemblyTimeout = time.Minute
	tx := newAFFNode(t, r, 1, cfg, AFFOptions{})

	rad := r.med.MustAttach(2)
	sel := core.NewListeningSelector(cfg.Space, xrand.NewSource(2).Stream("crash"), core.FixedWindow(10))
	rx, err := NewAFF(rad, cfg, sel, AFFOptions{})
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	rx.SetPacketHandler(func([]byte) { delivered++ })

	if err := tx.SendPacket(make([]byte, 80)); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if rx.Reassembler().PendingCount() != 1 || sel.Recent() == 0 {
		t.Fatalf("scenario broken: pending=%d recent=%d, want a stranded partial and a warm window",
			rx.Reassembler().PendingCount(), sel.Recent())
	}

	rx.Crash()
	if rx.Reassembler().PendingCount() != 0 {
		t.Error("crash left partial reassemblies")
	}
	if sel.Recent() != 0 {
		t.Error("crash left the listening window populated")
	}

	// Down: traffic passes the node by.
	if err := tx.SendPacket(make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if delivered != 0 {
		t.Errorf("crashed node delivered %d packets", delivered)
	}

	// Restarted: the node rejoins with empty state and receives normally.
	rx.Restart()
	if err := tx.SendPacket(make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if delivered != 1 {
		t.Errorf("restarted node delivered %d packets, want 1", delivered)
	}
}

func TestStaticCrashWipesReassembly(t *testing.T) {
	p := radio.DefaultParams()
	p.Loss = &dropNth{from: 1, n: 4}
	r := newRig(t, p)
	cfg := staticaddr.Config{AddrBits: 16, MTU: 27, ReassemblyTimeout: time.Minute}
	tx, err := NewStatic(r.med.MustAttach(1), cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewStatic(r.med.MustAttach(2), cfg, 200)
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	rx.SetPacketHandler(func([]byte) { delivered++ })

	if err := tx.SendPacket(make([]byte, 80)); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	rx.Crash()
	if got := rx.Reassembler().Stats().Delivered; got != 0 || delivered != 0 {
		t.Fatalf("partial packet was delivered (%d/%d)", got, delivered)
	}

	// A crashed sender cannot transmit; after restart both ends work again.
	tx.Crash()
	if err := tx.SendPacket(make([]byte, 40)); err == nil {
		t.Error("crashed sender accepted a packet")
	}
	tx.Restart()
	rx.Restart()
	if err := tx.SendPacket(make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if delivered != 1 {
		t.Errorf("delivered %d after restart, want 1", delivered)
	}
}

// fateTap invokes fn on every per-receiver reception verdict, after
// forwarding the feed to next (when set).
type fateTap struct {
	next radio.FateObserver
	fn   func(to radio.NodeID, f radio.Frame, fate radio.Fate)
}

func (ft *fateTap) FrameSent(f radio.Frame) {
	if ft.next != nil {
		ft.next.FrameSent(f)
	}
}

func (ft *fateTap) FrameFate(to radio.NodeID, f radio.Frame, fate radio.Fate) {
	if ft.next != nil {
		ft.next.FrameFate(to, f, fate)
	}
	ft.fn(to, f, fate)
}

// TestCrashDuringPartialReassemblyAuditsClean crashes a receiver in the
// middle of reassembling a packet, with the engine-driven expiry sweep
// armed and the omniscient oracle watching. The crash must wipe the RAM
// partial state and its expiry-queue timer together — no timeout or
// eviction counter may fire for state that died with the node — and the
// oracle must see no conservation or freshness violation from the
// half-received transaction.
func TestCrashDuringPartialReassemblyAuditsClean(t *testing.T) {
	p := radio.DefaultParams()
	loss := &dropNth{from: 1, n: 5}
	p.Loss = loss
	r := newRig(t, p)
	cfg := affConfig(9)
	cfg.Instrument = true
	cfg.ReassemblyTimeout = 500 * time.Millisecond

	tr, err := truth.New(truth.Config{AFF: cfg, Now: r.eng.Now})
	if err != nil {
		t.Fatal(err)
	}
	orc, err := oracle.New(tr, oracle.Config{Topo: radio.FullMesh{}})
	if err != nil {
		t.Fatal(err)
	}

	tx := newAFFNode(t, r, 1, cfg, AFFOptions{})
	delivered := 0
	rxOpts := AFFOptions{Engine: r.eng}
	rxOpts.OnDeliver = func(pkt aff.Packet) {
		delivered++
		orc.VerifyDelivered(2, pkt)
	}
	rx := newAFFNode(t, r, 2, cfg, rxOpts)

	// Crash the receiver the moment it holds partial state, i.e. from
	// within the run, mid-transaction.
	crashed := false
	r.med.SetFateObserver(&fateTap{next: tr, fn: func(to radio.NodeID, _ radio.Frame, fate radio.Fate) {
		if to == 2 && fate == radio.FateDelivered && !crashed && rx.Reassembler().PendingCount() > 0 {
			crashed = true
			r.eng.Schedule(0, rx.Crash)
		}
	}})

	if err := tx.SendPacket(make([]byte, 80)); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if !crashed {
		t.Fatal("scenario broken: the receiver never held partial state")
	}
	if rx.Reassembler().PendingCount() != 0 {
		t.Error("crash left partial reassemblies")
	}
	st := rx.Reassembler().Stats()
	if st.Timeouts != 0 || st.CapEvictions != 0 {
		t.Errorf("wipe was miscounted: timeouts=%d evictions=%d, want 0/0 — "+
			"a crash is neither an idle expiry nor a cap eviction", st.Timeouts, st.CapEvictions)
	}
	if delivered != 0 {
		t.Fatalf("half-received packet was delivered %d times", delivered)
	}

	// The node rejoins with empty state and the next transaction flows
	// end to end; the stale expiry timer from before the crash must not
	// resurface against the new state. (The loss model is disarmed — a
	// down radio is never consulted for drops, so its frame count did not
	// advance while the node was dead.)
	loss.n = 0
	rx.Restart()
	if err := tx.SendPacket(make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if delivered != 1 {
		t.Errorf("restarted node delivered %d packets, want 1", delivered)
	}
	if st := rx.Reassembler().Stats(); st.Timeouts != 0 || st.CapEvictions != 0 {
		t.Errorf("post-restart counters: timeouts=%d evictions=%d, want 0/0", st.Timeouts, st.CapEvictions)
	}
	rep := orc.Report()
	if err := rep.Check(); err != nil {
		t.Errorf("oracle audit after crash/restart: %v", err)
	}
	if rep.PacketsAudited == 0 || rep.Unaudited != 0 {
		t.Errorf("audit coverage: audited=%d unaudited=%d, want the delivery audited", rep.PacketsAudited, rep.Unaudited)
	}
}

// TestCorruptionNeverMisdelivers is the end-to-end corruption-safety
// guarantee: with a bit-flipping channel, every packet the stack hands up
// must be byte-identical to one that was sent — corruption may cost
// deliveries (checksum drops) but can never forge one.
func TestCorruptionNeverMisdelivers(t *testing.T) {
	p := radio.DefaultParams()
	flipper := faults.NewBitFlipper(0.3, xrand.NewSource(31).Stream("flip", t.Name()))
	p.Corrupt = flipper
	r := newRig(t, p)
	cfg := affConfig(16)
	tx := newAFFNode(t, r, 1, cfg, AFFOptions{})
	rx := newAFFNode(t, r, 2, cfg, AFFOptions{})

	sent := make(map[string]bool)
	delivered := 0
	rx.SetPacketHandler(func(pl []byte) {
		delivered++
		if !sent[string(pl)] {
			t.Errorf("delivered a payload that was never sent: %x", pl)
		}
	})

	const n = 150
	for i := 0; i < n; i++ {
		pkt := bytes.Repeat([]byte{byte(i)}, 60)
		copy(pkt, fmt.Sprintf("packet-%03d", i))
		sent[string(pkt)] = true
		if err := tx.SendPacket(pkt); err != nil {
			t.Fatal(err)
		}
		r.eng.Run()
	}

	if flipper.Flips() == 0 {
		t.Fatal("corrupter never fired; test is vacuous")
	}
	if got := r.med.Counters().Corrupted; got != flipper.Flips() {
		t.Errorf("medium counted %d corrupted deliveries, corrupter reports %d", got, flipper.Flips())
	}
	st := rx.Reassembler().Stats()
	if st.ChecksumFailures+st.Conflicts+st.Malformed == 0 {
		t.Error("no corruption was caught by the checksum/consistency layer")
	}
	if delivered == 0 {
		t.Error("nothing delivered at all; channel unusable")
	}
	if delivered >= n {
		t.Errorf("all %d packets survived a 30%% bit-flip channel; corruption not applied", n)
	}
}
