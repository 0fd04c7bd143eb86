package dynaddr

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"retri/internal/frame"
	"retri/internal/radio"
	"retri/internal/sim"
	"retri/internal/staticaddr"
	"retri/internal/xrand"
)

func testSetup(t *testing.T, n int) (*sim.Engine, *radio.Medium, []*Node) {
	t.Helper()
	eng := sim.NewEngine()
	src := xrand.NewSource(31).Child("dynaddr", t.Name())
	med := radio.NewMedium(eng, radio.FullMesh{}, radio.DefaultParams(), src.Stream("medium"))
	nodes := make([]*Node, n)
	for i := range nodes {
		r := med.MustAttach(radio.NodeID(i))
		node, err := NewNode(eng, r, Config{AddrBits: 10}, src.Stream("node", fmt.Sprint(i)))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	return eng, med, nodes
}

func TestCodecControlRoundTrip(t *testing.T) {
	c := codec{addrBits: 10}
	for _, kind := range []int{MsgClaim, MsgDefend, MsgAnnounce} {
		m := Control{Kind: kind, Addr: 777, Nonce: 0xBEEF}
		buf, bits, err := c.encodeControl(m)
		if err != nil {
			t.Fatal(err)
		}
		if bits != 1+2+10+16 {
			t.Errorf("control bits = %d, want 29", bits)
		}
		got, _, isControl, err := c.decode(nil, buf)
		if err != nil || !isControl {
			t.Fatalf("decode: %v (control=%v)", err, isControl)
		}
		if got != m {
			t.Errorf("round trip %+v -> %+v", m, got)
		}
	}
}

func TestCodecRejectsBadControl(t *testing.T) {
	c := codec{addrBits: 10}
	if _, _, err := c.encodeControl(Control{Kind: 0}); err == nil {
		t.Error("kind 0 accepted")
	}
	if _, _, err := c.encodeControl(Control{Kind: MsgClaim, Addr: 1 << 10}); err == nil {
		t.Error("oversize address accepted")
	}
	if _, _, _, err := c.decode(nil, nil); !errors.Is(err, ErrBadControl) {
		t.Errorf("empty frame err = %v", err)
	}
}

func TestCodecDataRoundTrip(t *testing.T) {
	c := codec{addrBits: 10}
	inner := []byte{9, 8, 7, 6}
	buf, bits := frame.WrapBit(nil, demuxData, inner, 8*len(inner))
	if bits != 1+32 {
		t.Errorf("wrapped bits = %d, want 33", bits)
	}
	_, data, isControl, err := c.decode(nil, buf)
	if err != nil || isControl {
		t.Fatalf("decode: %v (control=%v)", err, isControl)
	}
	if !bytes.Equal(data, inner) {
		t.Errorf("data = %v, want %v", data, inner)
	}
}

func TestSingleNodeAcquiresAddress(t *testing.T) {
	eng, _, nodes := testSetup(t, 1)
	nodes[0].Start()
	eng.Run()
	addr, ok := nodes[0].Allocator().Addr()
	if !ok {
		t.Fatal("node never acquired an address")
	}
	if addr >= 1<<10 {
		t.Errorf("address %d outside 10-bit space", addr)
	}
	st := nodes[0].Allocator().Stats()
	if st.ClaimsSent != 3 {
		t.Errorf("ClaimsSent = %d, want 3", st.ClaimsSent)
	}
	if st.Acquisitions != 1 {
		t.Errorf("Acquisitions = %d, want 1", st.Acquisitions)
	}
	if st.ControlBits == 0 {
		t.Error("control traffic not accounted")
	}
}

func TestManyNodesAcquireDistinctAddresses(t *testing.T) {
	eng, _, nodes := testSetup(t, 12)
	for _, n := range nodes {
		n.Start()
	}
	eng.Run()
	seen := make(map[uint64]int)
	for i, n := range nodes {
		addr, ok := n.Allocator().Addr()
		if !ok {
			t.Fatalf("node %d unassigned after run", i)
		}
		seen[addr]++
	}
	for addr, count := range seen {
		if count > 1 {
			t.Errorf("address %d assigned to %d nodes", addr, count)
		}
	}
}

func TestCompetingClaimsResolved(t *testing.T) {
	// A tiny 2-bit space with 4 nodes forces claim contention; all must
	// still converge to distinct addresses.
	eng := sim.NewEngine()
	src := xrand.NewSource(32).Child("contend")
	med := radio.NewMedium(eng, radio.FullMesh{}, radio.DefaultParams(), src.Stream("m"))
	nodes := make([]*Node, 4)
	for i := range nodes {
		r := med.MustAttach(radio.NodeID(i))
		n, err := NewNode(eng, r, Config{AddrBits: 2}, src.Stream("n", fmt.Sprint(i)))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		n.Start()
	}
	eng.Run()
	seen := make(map[uint64]bool)
	for i, n := range nodes {
		addr, ok := n.Allocator().Addr()
		if !ok {
			t.Fatalf("node %d unassigned", i)
		}
		if seen[addr] {
			t.Fatalf("duplicate address %d", addr)
		}
		seen[addr] = true
	}
}

func TestDefendRejectsLateClaimer(t *testing.T) {
	eng, med, nodes := testSetup(t, 1)
	nodes[0].Start()
	eng.Run()
	owned, _ := nodes[0].Allocator().Addr()

	// A latecomer joins knowing nothing; force its RNG toward conflicts
	// by claiming in a space of... instead, directly inject a claim for
	// the owned address and watch the DEFEND.
	r2 := med.MustAttach(99)
	late, err := NewNode(eng, r2, Config{AddrBits: 10}, xrand.NewSource(77).Stream("late"))
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the latecomer's first claim colliding: feed the owner a
	// CLAIM for its own address.
	c := codec{addrBits: 10}
	buf, bits, err := c.encodeControl(Control{Kind: MsgClaim, Addr: owned, Nonce: 0x1234})
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Send(buf, bits); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if nodes[0].Allocator().Stats().DefendsSent == 0 {
		t.Error("owner did not defend its address")
	}
	_ = late
}

func TestSendBeforeAssignmentFails(t *testing.T) {
	_, _, nodes := testSetup(t, 1)
	if err := nodes[0].SendPacket([]byte("data")); !errors.Is(err, ErrNoAddress) {
		t.Errorf("SendPacket before assignment err = %v, want ErrNoAddress", err)
	}
}

func TestDataFlowsAfterAssignment(t *testing.T) {
	eng, _, nodes := testSetup(t, 2)
	var got []byte
	nodes[1].SetPacketHandler(func(p []byte) { got = append([]byte{}, p...) })
	nodes[0].Start()
	nodes[1].Start()
	eng.Run()

	packet := []byte("dynamic short-address data packet")
	if err := nodes[0].SendPacket(packet); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !bytes.Equal(got, packet) {
		t.Fatalf("received %q, want %q", got, packet)
	}
	if nodes[0].PacketsSent() != 1 || nodes[1].PacketsDelivered() != 1 {
		t.Error("packet counters wrong")
	}
}

// TestDataFramesFitMediumMTU runs a pair on a 20-byte-MTU medium: the
// data fragmenter must size its frames for that medium, not a fixed 27
// bytes, so an 80-byte packet still gets through.
func TestDataFramesFitMediumMTU(t *testing.T) {
	eng := sim.NewEngine()
	src := xrand.NewSource(37).Child("dynaddr", t.Name())
	params := radio.DefaultParams()
	params.MTU = 20
	med := radio.NewMedium(eng, radio.FullMesh{}, params, src.Stream("medium"))
	nodes := make([]*Node, 2)
	for i := range nodes {
		n, err := NewNode(eng, med.MustAttach(radio.NodeID(i)), Config{AddrBits: 10}, src.Stream("node", fmt.Sprint(i)))
		if err != nil {
			t.Fatal(err)
		}
		n.Start()
		nodes[i] = n
	}
	eng.Run()
	var got []byte
	nodes[1].SetPacketHandler(func(p []byte) { got = append([]byte(nil), p...) })
	packet := make([]byte, 80)
	for i := range packet {
		packet[i] = byte(i)
	}
	if err := nodes[0].SendPacket(packet); err != nil {
		t.Fatalf("SendPacket on a 20-byte medium: %v", err)
	}
	eng.Run()
	if !bytes.Equal(got, packet) {
		t.Errorf("received %x, want %x", got, packet)
	}
}

// TestCrashKeepsReassemblyStats pins that a crash wipes partial
// reassembly state but not the harness counters: Reassembler().Stats()
// must agree with PacketsDelivered across a crash.
func TestCrashKeepsReassemblyStats(t *testing.T) {
	eng, _, nodes := testSetup(t, 2)
	nodes[0].Start()
	nodes[1].Start()
	eng.Run()
	packet := []byte("delivered before the crash")
	if err := nodes[0].SendPacket(packet); err != nil {
		t.Fatal(err)
	}
	eng.Run()

	// Leave one partial packet pending at the receiver.
	frag, err := staticaddr.NewFragmenter(nodes[1].fragCfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := frag.Fragment(make([]byte, 40))
	if err != nil {
		t.Fatal(err)
	}
	rx := nodes[1].Reassembler()
	for _, fr := range tx.Fragments[:len(tx.Fragments)-1] {
		rx.Ingest(fr.Bytes)
	}
	if rx.PendingCount() != 1 {
		t.Fatalf("PendingCount = %d before the crash, want 1", rx.PendingCount())
	}

	nodes[1].Crash()
	rx = nodes[1].Reassembler()
	if rx.PendingCount() != 0 {
		t.Errorf("PendingCount = %d after the crash, want 0", rx.PendingCount())
	}
	st := rx.Stats()
	if st.Delivered != 1 || st.DeliveredBits != int64(8*len(packet)) {
		t.Errorf("Delivered/DeliveredBits = %d/%d after the crash, want 1/%d",
			st.Delivered, st.DeliveredBits, 8*len(packet))
	}
	if got := nodes[1].PacketsDelivered(); got != 1 {
		t.Errorf("PacketsDelivered = %d after the crash, want 1", got)
	}
}

func TestAnnounceKeepalives(t *testing.T) {
	eng := sim.NewEngine()
	src := xrand.NewSource(33).Child("ann")
	med := radio.NewMedium(eng, radio.FullMesh{}, radio.DefaultParams(), src.Stream("m"))
	r := med.MustAttach(1)
	n, err := NewNode(eng, r, Config{AddrBits: 10, AnnounceInterval: time.Second}, src.Stream("n"))
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	eng.RunUntil(5 * time.Second)
	if got := n.Allocator().Stats().AnnouncesSent; got < 3 {
		t.Errorf("AnnouncesSent = %d, want >= 3 over ~4.4s", got)
	}
}

func TestReleaseStopsAllocator(t *testing.T) {
	eng, _, nodes := testSetup(t, 1)
	nodes[0].Start()
	eng.Run()
	nodes[0].Allocator().Release()
	if nodes[0].Allocator().State() != Unassigned {
		t.Error("Release did not return to Unassigned")
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		Unassigned: "unassigned",
		Claiming:   "claiming",
		Assigned:   "assigned",
		State(0):   "invalid",
	} {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", s, got, want)
		}
	}
}

func TestControlOverheadGrowsWithChurn(t *testing.T) {
	// The Section 2.3 argument made measurable: more joins, more control
	// bits.
	run := func(joins int) int64 {
		eng := sim.NewEngine()
		src := xrand.NewSource(34).Child("churn", fmt.Sprint(joins))
		med := radio.NewMedium(eng, radio.FullMesh{}, radio.DefaultParams(), src.Stream("m"))
		var total int64
		for i := 0; i < joins; i++ {
			r := med.MustAttach(radio.NodeID(i))
			n, err := NewNode(eng, r, Config{AddrBits: 10}, src.Stream("n", fmt.Sprint(i)))
			if err != nil {
				t.Fatal(err)
			}
			n.Start()
			eng.Run()
			total += n.Allocator().Stats().ControlBits
		}
		return total
	}
	few, many := run(2), run(10)
	if many <= few {
		t.Errorf("control bits: %d joins -> %d bits, %d joins -> %d bits; should grow",
			2, few, 10, many)
	}
}

// TestStatsAdd: Add folds every counter field, so per-node allocator
// stats sum into a trial's totals without dropping any of them.
func TestStatsAdd(t *testing.T) {
	s := Stats{ClaimsSent: 1, DefendsSent: 2, AnnouncesSent: 3, ControlBits: 4, Conflicts: 5, Acquisitions: 6}
	s.Add(s)
	want := Stats{ClaimsSent: 2, DefendsSent: 4, AnnouncesSent: 6, ControlBits: 8, Conflicts: 10, Acquisitions: 12}
	if s != want {
		t.Errorf("Add = %+v, want %+v", s, want)
	}
}
