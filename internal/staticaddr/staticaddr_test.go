package staticaddr

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"math/rand/v2"

	"retri/internal/frame"
)

// collect returns a delivery callback keeping a copy of every packet:
// the reassembler lends a packet's data only for the call.
func collect(out *[]Packet) func(Packet) {
	return func(p Packet) {
		p.Data = bytes.Clone(p.Data)
		*out = append(*out, p)
	}
}

func testConfig() Config {
	return Config{AddrBits: 16, MTU: 27}
}

func TestFragmentShape(t *testing.T) {
	f, err := NewFragmenter(testConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := f.Fragment(make([]byte, 80))
	if err != nil {
		t.Fatal(err)
	}
	if tx.Src != 42 || tx.Seq != 0 {
		t.Errorf("key = (%d, %d), want (42, 0)", tx.Src, tx.Seq)
	}
	// Static data header: 1+16+16+16 = 49 bits -> 7 bytes; 20-byte payload
	// per fragment at MTU 27 -> 4 data fragments for 80 bytes.
	if len(tx.Fragments) != 5 {
		t.Errorf("fragments = %d, want 5", len(tx.Fragments))
	}
	for i, fr := range tx.Fragments {
		if len(fr.Bytes) > 27 {
			t.Errorf("fragment %d exceeds MTU: %d bytes", i, len(fr.Bytes))
		}
	}
}

func TestSequenceAdvancesAndWraps(t *testing.T) {
	cfg := testConfig()
	cfg.SeqBits = 2 // wrap after 4
	f, err := NewFragmenter(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	for i := 0; i < 6; i++ {
		tx, err := f.Fragment([]byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, tx.Seq)
	}
	want := []uint64{0, 1, 2, 3, 0, 1}
	for i := range want {
		if seqs[i] != want[i] {
			t.Errorf("seqs = %v, want %v", seqs, want)
			break
		}
	}
}

func TestFragmenterValidation(t *testing.T) {
	if _, err := NewFragmenter(Config{AddrBits: 0}, 0); err == nil {
		t.Error("AddrBits 0 accepted")
	}
	if _, err := NewFragmenter(Config{AddrBits: 8}, 256); !errors.Is(err, ErrBadAddress) {
		t.Errorf("oversize address err = %v, want ErrBadAddress", err)
	}
	cfg := testConfig()
	cfg.MTU = 3
	if _, err := NewFragmenter(cfg, 1); !errors.Is(err, frame.ErrMTUTooSmall) {
		t.Errorf("tiny MTU err = %v, want frame.ErrMTUTooSmall", err)
	}
}

func TestFragmenterSeqBitsRange(t *testing.T) {
	// The codec carries 1 to 32 sequence bits (0 selects the default).
	// Anything else must fail at construction, not at the first Fragment.
	cases := []struct {
		seqBits int
		ok      bool
	}{
		{-1, false}, {0, true}, {1, true}, {16, true}, {32, true},
		{33, false}, {63, false}, {64, false}, {65, false},
	}
	for _, tc := range cases {
		cfg := testConfig()
		cfg.SeqBits = tc.seqBits
		f, err := NewFragmenter(cfg, 1)
		if !tc.ok {
			if err == nil {
				t.Errorf("SeqBits %d accepted", tc.seqBits)
			}
			continue
		}
		if err != nil {
			t.Errorf("SeqBits %d rejected: %v", tc.seqBits, err)
			continue
		}
		for i := 0; i < 3; i++ {
			if _, err := f.Fragment([]byte("x")); err != nil {
				t.Errorf("SeqBits %d: Fragment %d: %v", tc.seqBits, i, err)
			}
		}
	}
}

func TestFragmentRejectsBadPackets(t *testing.T) {
	f, err := NewFragmenter(testConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Fragment(nil); !errors.Is(err, frame.ErrEmptyPacket) {
		t.Errorf("empty err = %v", err)
	}
	if _, err := f.Fragment(make([]byte, frame.MaxPacketLen+1)); !errors.Is(err, frame.ErrPacketTooLarge) {
		t.Errorf("oversize err = %v", err)
	}
}

func TestRoundTrip(t *testing.T) {
	cfg := testConfig()
	f, err := NewFragmenter(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	var out []Packet
	r := NewReassembler(cfg, nil, collect(&out))
	packet := make([]byte, 200)
	for i := range packet {
		packet[i] = byte(i * 3)
	}
	tx, err := f.Fragment(packet)
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range tx.Fragments {
		r.Ingest(fr.Bytes)
	}
	if len(out) != 1 || !bytes.Equal(out[0].Data, packet) {
		t.Fatal("round trip failed")
	}
	if out[0].Src != 7 || out[0].Seq != 0 {
		t.Errorf("delivered key (%d, %d), want (7, 0)", out[0].Src, out[0].Seq)
	}
	if r.PendingCount() != 0 {
		t.Errorf("pending leak: %d", r.PendingCount())
	}
}

// TestInterleavedSendersNoCollision is the baseline's defining property:
// many senders interleaving identical-length packets all deliver, because
// the address disambiguates — the scenario where AFF would collide.
func TestInterleavedSendersNoCollision(t *testing.T) {
	cfg := testConfig()
	r := NewReassembler(cfg, nil, nil)
	var txs []Transaction
	for addr := uint64(0); addr < 8; addr++ {
		f, err := NewFragmenter(cfg, addr)
		if err != nil {
			t.Fatal(err)
		}
		pkt := bytes.Repeat([]byte{byte(addr)}, 60)
		tx, err := f.Fragment(pkt)
		if err != nil {
			t.Fatal(err)
		}
		txs = append(txs, tx)
	}
	// Interleave all senders fragment by fragment.
	for i := 0; i < len(txs[0].Fragments); i++ {
		for _, tx := range txs {
			r.Ingest(tx.Fragments[i].Bytes)
		}
	}
	if got := r.Stats().Delivered; got != 8 {
		t.Errorf("Delivered = %d, want 8", got)
	}
	if r.Stats().ChecksumFailures != 0 {
		t.Errorf("checksum failures: %d", r.Stats().ChecksumFailures)
	}
}

func TestStaticHeaderCostGrowsWithAddrBits(t *testing.T) {
	tx := func(addrBits int) int {
		cfg := Config{AddrBits: addrBits, MTU: 27}
		f, err := NewFragmenter(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		out, err := f.Fragment(make([]byte, 80))
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, fr := range out.Fragments {
			total += fr.Bits
		}
		return total
	}
	b16, b32, b48 := tx(16), tx(32), tx(48)
	if !(b16 < b32 && b32 < b48) {
		t.Errorf("total bits should grow with address width: %d, %d, %d", b16, b32, b48)
	}
}

func TestEarlyDataBuffered(t *testing.T) {
	cfg := testConfig()
	f, err := NewFragmenter(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	var out []Packet
	r := NewReassembler(cfg, nil, collect(&out))
	tx, err := f.Fragment(make([]byte, 50))
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range tx.Fragments[1:] {
		r.Ingest(fr.Bytes)
	}
	if len(out) != 0 {
		t.Fatal("delivered before introduction")
	}
	r.Ingest(tx.Fragments[0].Bytes)
	if len(out) != 1 {
		t.Error("not delivered after introduction")
	}
}

func TestTimeoutEviction(t *testing.T) {
	cfg := testConfig()
	cfg.ReassemblyTimeout = 5 * time.Second
	now := time.Duration(0)
	f, err := NewFragmenter(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReassembler(cfg, func() time.Duration { return now }, nil)
	tx, err := f.Fragment(make([]byte, 80))
	if err != nil {
		t.Fatal(err)
	}
	r.Ingest(tx.Fragments[0].Bytes)
	now = time.Minute
	tx2, err := f.Fragment([]byte("y"))
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range tx2.Fragments {
		r.Ingest(fr.Bytes)
	}
	if r.Stats().Timeouts != 1 {
		t.Errorf("Timeouts = %d, want 1", r.Stats().Timeouts)
	}
}

func TestMalformedCounted(t *testing.T) {
	r := NewReassembler(testConfig(), nil, nil)
	r.Ingest([]byte{0xFF})
	if r.Stats().Malformed != 1 {
		t.Errorf("Malformed = %d, want 1", r.Stats().Malformed)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64, sizeRaw uint16, addrBitsRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 9))
		addrBits := int(addrBitsRaw%48) + 8
		size := int(sizeRaw%1500) + 1
		cfg := Config{AddrBits: addrBits, MTU: 27}
		var addrMask uint64 = 1<<uint(addrBits) - 1
		fr, err := NewFragmenter(cfg, rng.Uint64()&addrMask)
		if err != nil {
			return false
		}
		packet := make([]byte, size)
		for i := range packet {
			packet[i] = byte(rng.Uint64())
		}
		var out []Packet
		r := NewReassembler(cfg, nil, collect(&out))
		tx, err := fr.Fragment(packet)
		if err != nil {
			return false
		}
		for _, f := range tx.Fragments {
			r.Ingest(f.Bytes)
		}
		return len(out) == 1 && bytes.Equal(out[0].Data, packet)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
