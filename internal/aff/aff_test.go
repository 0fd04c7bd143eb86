package aff

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"retri/internal/checksum"
	"retri/internal/core"
	"retri/internal/frame"
	"retri/internal/xrand"
)

func testConfig(bits int) Config {
	return Config{Space: core.MustSpace(bits), MTU: 27}
}

func newFragmenter(t *testing.T, cfg Config, seed uint64) *Fragmenter {
	t.Helper()
	sel := core.NewUniformSelector(cfg.Space, xrand.NewSource(seed).Stream("sel", t.Name()))
	f, err := NewFragmenter(cfg, sel, 1)
	if err != nil {
		t.Fatalf("NewFragmenter: %v", err)
	}
	return f
}

func TestFragmentPacketShape(t *testing.T) {
	// The paper's experiment: an 80-byte packet becomes "a single fragment
	// introduction and four data fragments" at MTU 27.
	f := newFragmenter(t, testConfig(9), 1)
	tx, err := f.Fragment(make([]byte, 80))
	if err != nil {
		t.Fatalf("Fragment: %v", err)
	}
	if len(tx.Fragments) != 5 {
		t.Errorf("80-byte packet produced %d fragments, want 5 (1 intro + 4 data)", len(tx.Fragments))
	}
	if tx.DataBits != 640 {
		t.Errorf("DataBits = %d, want 640", tx.DataBits)
	}
	if !f.cfg.Space.Contains(tx.ID) {
		t.Errorf("transaction ID %d outside space", tx.ID)
	}
	totalBits := 0
	for i, fr := range tx.Fragments {
		if len(fr.Bytes) > 27 {
			t.Errorf("fragment %d is %d bytes, exceeds MTU", i, len(fr.Bytes))
		}
		if fr.Bits <= 0 || fr.Bits > 8*len(fr.Bytes) {
			t.Errorf("fragment %d bit count %d inconsistent with %d bytes", i, fr.Bits, len(fr.Bytes))
		}
		totalBits += fr.Bits
	}
	if totalBits <= tx.DataBits {
		t.Error("total bits must exceed DataBits (headers cost something)")
	}
}

func TestFragmentRejectsBadPackets(t *testing.T) {
	f := newFragmenter(t, testConfig(9), 2)
	if _, err := f.Fragment(nil); !errors.Is(err, frame.ErrEmptyPacket) {
		t.Errorf("empty packet err = %v, want frame.ErrEmptyPacket", err)
	}
	if _, err := f.Fragment(make([]byte, frame.MaxPacketLen+1)); !errors.Is(err, frame.ErrPacketTooLarge) {
		t.Errorf("oversize packet err = %v, want frame.ErrPacketTooLarge", err)
	}
}

func TestNewFragmenterValidation(t *testing.T) {
	cfg := testConfig(9)
	if _, err := NewFragmenter(cfg, nil, 0); err == nil {
		t.Error("nil selector accepted")
	}
	wrongSel := core.NewUniformSelector(core.MustSpace(4), xrand.NewSource(1).Stream("x"))
	if _, err := NewFragmenter(cfg, wrongSel, 0); err == nil {
		t.Error("selector space mismatch accepted")
	}
	tiny := cfg
	tiny.MTU = 2
	sel := core.NewUniformSelector(cfg.Space, xrand.NewSource(1).Stream("y"))
	if _, err := NewFragmenter(tiny, sel, 0); !errors.Is(err, frame.ErrMTUTooSmall) {
		t.Errorf("tiny MTU err = %v, want frame.ErrMTUTooSmall", err)
	}
}

func TestFreshIdentifierPerTransaction(t *testing.T) {
	// "By choosing a new random identifier for each transaction,
	// persistent losses are avoided." Successive IDs must vary.
	f := newFragmenter(t, testConfig(16), 3)
	ids := make(map[uint64]bool)
	for i := 0; i < 64; i++ {
		tx, err := f.Fragment([]byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		ids[tx.ID] = true
	}
	if len(ids) < 48 {
		t.Errorf("64 transactions used only %d distinct identifiers", len(ids))
	}
}

func roundTrip(t *testing.T, cfg Config, packet []byte, seed uint64) []Packet {
	t.Helper()
	f := newFragmenter(t, cfg, seed)
	var out []Packet
	r := NewReassembler(cfg, nil, func(p Packet) { out = append(out, p) })
	tx, err := f.Fragment(packet)
	if err != nil {
		t.Fatalf("Fragment: %v", err)
	}
	for _, fr := range tx.Fragments {
		r.Ingest(fr.Bytes)
	}
	return out
}

func TestReassembleRoundTrip(t *testing.T) {
	packet := make([]byte, 80)
	for i := range packet {
		packet[i] = byte(i * 7)
	}
	out := roundTrip(t, testConfig(9), packet, 4)
	if len(out) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(out))
	}
	if !bytes.Equal(out[0].Data, packet) {
		t.Error("reassembled payload differs from original")
	}
}

func TestReassembleSingleFragmentPacket(t *testing.T) {
	out := roundTrip(t, testConfig(9), []byte{0x42}, 5)
	if len(out) != 1 || len(out[0].Data) != 1 || out[0].Data[0] != 0x42 {
		t.Errorf("single-byte packet round trip failed: %+v", out)
	}
}

func TestReassembleLargePacket(t *testing.T) {
	packet := make([]byte, 64*1024-1)
	for i := range packet {
		packet[i] = byte(i)
	}
	out := roundTrip(t, testConfig(9), packet, 6)
	if len(out) != 1 || !bytes.Equal(out[0].Data, packet) {
		t.Fatal("64KiB-1 packet round trip failed")
	}
}

func TestReassembleChecksumKinds(t *testing.T) {
	for _, k := range []checksum.Kind{checksum.Internet, checksum.CRC16} {
		cfg := testConfig(9)
		cfg.Checksum = k
		out := roundTrip(t, cfg, []byte("checksum variant"), 7)
		if len(out) != 1 {
			t.Errorf("checksum %v: delivered %d, want 1", k, len(out))
		}
	}
}

func TestReassembleOutOfOrderDataBeforeIntro(t *testing.T) {
	// The introduction can be lost/reordered relative to data in general
	// designs; the reassembler buffers early data fragments.
	cfg := testConfig(9)
	f := newFragmenter(t, cfg, 8)
	var out []Packet
	r := NewReassembler(cfg, nil, func(p Packet) { out = append(out, p) })
	packet := make([]byte, 60)
	for i := range packet {
		packet[i] = byte(i)
	}
	tx, err := f.Fragment(packet)
	if err != nil {
		t.Fatal(err)
	}
	// Data fragments first, introduction last.
	for _, fr := range tx.Fragments[1:] {
		r.Ingest(fr.Bytes)
	}
	if len(out) != 0 {
		t.Fatal("delivered before introduction arrived")
	}
	r.Ingest(tx.Fragments[0].Bytes)
	if len(out) != 1 || !bytes.Equal(out[0].Data, packet) {
		t.Error("early-data reassembly failed")
	}
	if r.PendingCount() != 0 {
		t.Errorf("pending state leaked: %d", r.PendingCount())
	}
}

func TestReassembleDuplicateFragmentsIdempotent(t *testing.T) {
	cfg := testConfig(9)
	f := newFragmenter(t, cfg, 9)
	var out []Packet
	r := NewReassembler(cfg, nil, func(p Packet) { out = append(out, p) })
	tx, err := f.Fragment(make([]byte, 50))
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range tx.Fragments {
		r.Ingest(fr.Bytes)
		r.Ingest(fr.Bytes) // duplicate every frame
	}
	if len(out) != 1 {
		t.Errorf("delivered %d, want exactly 1 despite duplicates", len(out))
	}
	if r.Stats().Conflicts != 0 {
		t.Errorf("duplicates flagged as conflicts: %d", r.Stats().Conflicts)
	}
}

func TestMissingFragmentNoDelivery(t *testing.T) {
	cfg := testConfig(9)
	f := newFragmenter(t, cfg, 10)
	var out []Packet
	r := NewReassembler(cfg, nil, func(p Packet) { out = append(out, p) })
	tx, err := f.Fragment(make([]byte, 80))
	if err != nil {
		t.Fatal(err)
	}
	for i, fr := range tx.Fragments {
		if i == 2 {
			continue // drop one data fragment
		}
		r.Ingest(fr.Bytes)
	}
	if len(out) != 0 {
		t.Error("incomplete packet delivered")
	}
	if r.PendingCount() != 1 {
		t.Errorf("PendingCount = %d, want 1", r.PendingCount())
	}
}

// TestIdentifierCollisionDetected is the core collision scenario: two
// senders pick the same identifier; their interleaved fragments must never
// produce a delivered packet.
func TestIdentifierCollisionDetected(t *testing.T) {
	cfg := testConfig(4)
	selA := core.NewSequentialSelector(cfg.Space, 7)
	selB := core.NewSequentialSelector(cfg.Space, 7) // same id: 7
	fa, err := NewFragmenter(cfg, selA, 1)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := NewFragmenter(cfg, selB, 2)
	if err != nil {
		t.Fatal(err)
	}
	pktA := bytes.Repeat([]byte{0xAA}, 60)
	pktB := bytes.Repeat([]byte{0xBB}, 60)
	txA, err := fa.Fragment(pktA)
	if err != nil {
		t.Fatal(err)
	}
	txB, err := fb.Fragment(pktB)
	if err != nil {
		t.Fatal(err)
	}
	if txA.ID != txB.ID {
		t.Fatalf("test setup: ids differ (%d, %d)", txA.ID, txB.ID)
	}

	var out []Packet
	r := NewReassembler(cfg, nil, func(p Packet) { out = append(out, p) })
	// Interleave the two transactions' fragments.
	for i := 0; i < len(txA.Fragments); i++ {
		r.Ingest(txA.Fragments[i].Bytes)
		r.Ingest(txB.Fragments[i].Bytes)
	}
	if len(out) != 0 {
		t.Errorf("delivered %d packets from colliding transactions, want 0", len(out))
	}
	if r.Stats().Conflicts == 0 && r.Stats().ChecksumFailures == 0 {
		t.Error("collision left no trace in stats")
	}
}

// TestCollisionSameLengthDifferentContent: both colliding packets have the
// same announced length, so detection rests on content overlap or checksum.
func TestCollisionSameLengthDiffContentNotDelivered(t *testing.T) {
	cfg := testConfig(4)
	fa, err := NewFragmenter(cfg, core.NewSequentialSelector(cfg.Space, 3), 1)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := NewFragmenter(cfg, core.NewSequentialSelector(cfg.Space, 3), 2)
	if err != nil {
		t.Fatal(err)
	}
	txA, err := fa.Fragment(bytes.Repeat([]byte{1}, 40))
	if err != nil {
		t.Fatal(err)
	}
	txB, err := fb.Fragment(bytes.Repeat([]byte{2}, 40))
	if err != nil {
		t.Fatal(err)
	}

	var out []Packet
	r := NewReassembler(cfg, nil, func(p Packet) { out = append(out, p) })
	// A's intro arrives, then B's fragments fill the buffer: the checksum
	// in A's intro cannot match B's content.
	r.Ingest(txA.Fragments[0].Bytes)
	for _, fr := range txB.Fragments[1:] {
		r.Ingest(fr.Bytes)
	}
	if len(out) != 0 {
		t.Error("cross-assembled packet was delivered")
	}
	st := r.Stats()
	if st.ChecksumFailures == 0 && st.Conflicts == 0 {
		t.Errorf("collision undetected: %+v", st)
	}
}

func TestReassemblyTimeout(t *testing.T) {
	cfg := testConfig(9)
	cfg.ReassemblyTimeout = 10 * time.Second
	now := time.Duration(0)
	clock := func() time.Duration { return now }
	f := newFragmenter(t, cfg, 11)
	var out []Packet
	r := NewReassembler(cfg, clock, func(p Packet) { out = append(out, p) })

	tx, err := f.Fragment(make([]byte, 80))
	if err != nil {
		t.Fatal(err)
	}
	// Deliver all but the last fragment, then go idle past the timeout.
	for _, fr := range tx.Fragments[:len(tx.Fragments)-1] {
		r.Ingest(fr.Bytes)
	}
	now = 20 * time.Second
	// Any later traffic triggers expiry.
	tx2, err := f.Fragment([]byte("later"))
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range tx2.Fragments {
		r.Ingest(fr.Bytes)
	}
	// The stale packet is gone; its final fragment cannot complete it.
	r.Ingest(tx.Fragments[len(tx.Fragments)-1].Bytes)
	if r.Stats().Timeouts != 1 {
		t.Errorf("Timeouts = %d, want 1", r.Stats().Timeouts)
	}
	if len(out) != 1 { // only the "later" packet
		t.Errorf("delivered %d packets, want 1", len(out))
	}
}

func TestMalformedFrameCounted(t *testing.T) {
	r := NewReassembler(testConfig(9), nil, nil)
	r.Ingest(nil)
	r.Ingest([]byte{})
	if r.Stats().Malformed != 2 {
		t.Errorf("Malformed = %d, want 2", r.Stats().Malformed)
	}
}

func TestObserverSeesIdentifiers(t *testing.T) {
	cfg := testConfig(9)
	f := newFragmenter(t, cfg, 12)
	r := NewReassembler(cfg, nil, nil)
	var observed []uint64
	introCount := 0
	r.SetObserver(func(id uint64, intro bool) {
		observed = append(observed, id)
		if intro {
			introCount++
		}
	})
	tx, err := f.Fragment(make([]byte, 50))
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range tx.Fragments {
		r.Ingest(fr.Bytes)
	}
	if len(observed) != len(tx.Fragments) {
		t.Fatalf("observer saw %d ids, want %d", len(observed), len(tx.Fragments))
	}
	if introCount != 1 {
		t.Errorf("observer flagged %d introductions, want 1", introCount)
	}
	for _, id := range observed {
		if id != tx.ID {
			t.Errorf("observer saw id %d, want %d", id, tx.ID)
		}
	}
}

func TestDeliveredBitsAccounting(t *testing.T) {
	out := roundTrip(t, testConfig(9), make([]byte, 100), 13)
	if len(out) != 1 {
		t.Fatal("no delivery")
	}
	// Exercised via stats in a fresh run:
	cfg := testConfig(9)
	f := newFragmenter(t, cfg, 14)
	r := NewReassembler(cfg, nil, nil)
	tx, err := f.Fragment(make([]byte, 100))
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range tx.Fragments {
		r.Ingest(fr.Bytes)
	}
	if got := r.Stats().DeliveredBits; got != 800 {
		t.Errorf("DeliveredBits = %d, want 800", got)
	}
}

// TestRoundTripProperty fuzzes packet sizes and identifier widths through a
// lossless fragment/reassemble cycle.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64, sizeRaw uint16, bitsRaw uint8) bool {
		bits := int(bitsRaw%32) + 1
		size := int(sizeRaw%2000) + 1
		cfg := testConfig(bits)
		rng := xrand.NewSource(seed).Stream("prop")
		sel := core.NewUniformSelector(cfg.Space, rng)
		fr, err := NewFragmenter(cfg, sel, 1)
		if err != nil {
			return false
		}
		packet := make([]byte, size)
		for i := range packet {
			packet[i] = byte(rng.Uint64())
		}
		var out []Packet
		r := NewReassembler(cfg, nil, func(p Packet) { out = append(out, p) })
		tx, err := fr.Fragment(packet)
		if err != nil {
			return false
		}
		for _, f := range tx.Fragments {
			r.Ingest(f.Bytes)
		}
		return len(out) == 1 && bytes.Equal(out[0].Data, packet) && r.PendingCount() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestSteadyIngestAllocatesOnlyDeliveredBuffers streams whole 80-byte
// transactions through warmed reassemblers — fixed-width, in-band-width
// and instrumented, with idle timeouts on — and holds each to one
// allocation per packet: the buffer handed to the delivery callback. The
// ground-truth reassembler delivers to nobody, so it allocates nothing.
func TestSteadyIngestAllocatesOnlyDeliveredBuffers(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"fixed", testConfig(9)},
		{"in-band width", Config{Space: core.MustSpace(9), MTU: 27, AdaptiveWidth: true}},
		{"instrumented", Config{Space: core.MustSpace(9), MTU: 27, Instrument: true}},
	} {
		tc.cfg.ReassemblyTimeout = time.Second
		f := newFragmenter(t, tc.cfg, 1)
		var txs [][][]byte
		for i := 0; i < 8; i++ {
			tx, err := f.Fragment(make([]byte, 80))
			if err != nil {
				t.Fatal(err)
			}
			var frames [][]byte
			for _, fr := range tx.Fragments {
				frames = append(frames, fr.Bytes)
			}
			txs = append(txs, frames)
		}
		var now time.Duration
		clock := func() time.Duration { return now }
		delivered := 0
		r := NewReassembler(tc.cfg, clock, func(p Packet) {
			if tc.cfg.Instrument && p.Truth == nil {
				t.Errorf("%s: delivery without its trailer", tc.name)
			}
			delivered++
		})
		truth := NewTruthReassembler(tc.cfg, clock) // fed only instrumented frames
		n := 0
		stream := func(ingest func([]byte)) func() {
			return func() {
				now += 10 * time.Millisecond
				for _, b := range txs[n%len(txs)] {
					ingest(b)
				}
				n++
			}
		}
		type reassembler struct {
			name   string
			ingest func([]byte)
			want   float64
		}
		rs := []reassembler{{"aff", r.Ingest, 1}}
		if tc.cfg.Instrument {
			rs = append(rs, reassembler{"truth", truth.Ingest, 0})
		}
		for _, rc := range rs {
			run := stream(rc.ingest)
			for i := 0; i < 50; i++ {
				run()
			}
			if allocs := testing.AllocsPerRun(200, run); allocs != rc.want {
				t.Errorf("%s, %s reassembler: %.1f allocations per packet, want %.0f", tc.name, rc.name, allocs, rc.want)
			}
		}
		if delivered != 251 || (tc.cfg.Instrument && truth.Stats().Delivered != 251) {
			t.Errorf("%s: delivered %d and %d packets, want 251", tc.name, delivered, truth.Stats().Delivered)
		}
	}
}

func BenchmarkFragment80Byte(b *testing.B) {
	cfg := testConfig(9)
	sel := core.NewUniformSelector(cfg.Space, xrand.NewSource(1).Stream("bench"))
	f, err := NewFragmenter(cfg, sel, 1)
	if err != nil {
		b.Fatal(err)
	}
	packet := make([]byte, 80)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := f.Fragment(packet); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReassemble80Byte(b *testing.B) {
	cfg := testConfig(9)
	sel := core.NewUniformSelector(cfg.Space, xrand.NewSource(1).Stream("bench"))
	f, err := NewFragmenter(cfg, sel, 1)
	if err != nil {
		b.Fatal(err)
	}
	tx, err := f.Fragment(make([]byte, 80))
	if err != nil {
		b.Fatal(err)
	}
	r := NewReassembler(cfg, nil, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, fr := range tx.Fragments {
			r.Ingest(fr.Bytes)
		}
	}
}
