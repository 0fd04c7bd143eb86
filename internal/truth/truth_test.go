package truth

import (
	"testing"
	"time"

	"retri/internal/aff"
	"retri/internal/core"
	"retri/internal/frame"
	"retri/internal/radio"
)

// recorder is an Observer that keeps what it was handed.
type recorder struct {
	opened     []*Tx
	sent       int
	violations int
	fates      []radio.Fate
	fateTx     []*Tx
	nilFrames  int
}

func (r *recorder) Opened(tx *Tx, _ *Frame) { r.opened = append(r.opened, tx) }
func (r *recorder) Sent(_ *Frame, _ *Tx, violation bool) {
	r.sent++
	if violation {
		r.violations++
	}
}
func (r *recorder) Fate(_ radio.NodeID, f *Frame, tx *Tx, fate radio.Fate) {
	if f == nil {
		r.nilFrames++
	}
	r.fates = append(r.fates, fate)
	r.fateTx = append(r.fateTx, tx)
}

// rig is a tracker on a settable clock with the codec producing its
// frames (8-bit ids, 100ms stall timeout).
type rig struct {
	tr    *Tracker
	rec   *recorder
	codec frame.Codec
	now   time.Duration
}

func newRig(t *testing.T, instrument bool, retain time.Duration) *rig {
	t.Helper()
	r := &rig{rec: &recorder{}, codec: frame.Codec{IDBits: 8, Instrument: instrument}}
	tr, err := New(Config{
		AFF: aff.Config{
			Space:             core.MustSpace(8),
			Instrument:        instrument,
			ReassemblyTimeout: 100 * time.Millisecond,
		},
		Now:    func() time.Duration { return r.now },
		Retain: retain,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.Attach(r.rec)
	r.tr = tr
	return r
}

func (r *rig) intro(t *testing.T, from radio.NodeID, id uint64, total int, tt *frame.Truth) radio.Frame {
	t.Helper()
	p, bits, err := r.codec.EncodeIntro(frame.Intro{ID: id, TotalLen: total, Checksum: 7, Truth: tt})
	if err != nil {
		t.Fatal(err)
	}
	return radio.Frame{From: from, Payload: p, Bits: bits}
}

func (r *rig) data(t *testing.T, from radio.NodeID, id uint64, off int, b []byte, tt *frame.Truth) radio.Frame {
	t.Helper()
	p, bits, err := r.codec.EncodeData(frame.Data{ID: id, Offset: off, Payload: b, Truth: tt})
	if err != nil {
		t.Fatal(err)
	}
	return radio.Frame{From: from, Payload: p, Bits: bits}
}

func liveCount(tr *Tracker) int {
	n := 0
	tr.EachLive(func(*Tx) { n++ })
	return n
}

func TestNewRejectsEmptySpace(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("config without an identifier space accepted")
	}
}

func TestLifecycleOpenClose(t *testing.T) {
	r := newRig(t, true, 0)
	k := &frame.Truth{Node: 1, Seq: 1}
	r.tr.FrameSent(r.intro(t, 1, 5, 4, k))
	tx := r.tr.Find(Key{1, 1})
	if tx == nil || tx.State != Open || !tx.HaveLen || tx.TotalLen != 4 || tx.Checksum != 7 {
		t.Fatalf("after intro: %+v", tx)
	}
	if r.tr.Current(1) != tx || r.tr.OpenCount() != 1 || liveCount(r.tr) != 1 {
		t.Fatalf("current/open/live = %v/%d/%d", r.tr.Current(1), r.tr.OpenCount(), liveCount(r.tr))
	}
	r.now = 2 * time.Millisecond
	r.tr.FrameSent(r.data(t, 1, 5, 0, []byte{1, 2}, k))
	r.tr.FrameSent(r.data(t, 1, 5, 2, []byte{3, 4}, k))
	if tx.State != Closed || tx.ClosedAt != 2*time.Millisecond || r.tr.Current(1) != nil {
		t.Fatalf("after final fragment: %+v", tx)
	}
	if string(tx.Payload()) != "\x01\x02\x03\x04" || !tx.Covers(1, []byte{2, 3}) || tx.Covers(0, []byte{9}) {
		t.Fatalf("payload %v", tx.Payload())
	}
	c := r.tr.Counts()
	if c.Opened != 1 || c.Closed != 1 || c.FragmentsSent != 3 || c.Unattributed != 0 {
		t.Fatalf("counts %+v", c)
	}
	if len(r.rec.opened) != 1 || r.rec.sent != 3 || r.rec.violations != 0 {
		t.Fatalf("observer saw opened=%d sent=%d violations=%d", len(r.rec.opened), r.rec.sent, r.rec.violations)
	}

	// Retired transactions stay findable for the retention window (the
	// stall timeout here), then expire at the next send.
	r.now = 100 * time.Millisecond
	r.tr.FrameSent(r.intro(t, 2, 9, 1, &frame.Truth{Node: 2, Seq: 1}))
	if r.tr.Find(Key{1, 1}) != tx {
		t.Fatal("closed transaction forgotten inside the retention window")
	}
	r.now = 103 * time.Millisecond
	r.tr.FrameSent(r.intro(t, 3, 9, 1, &frame.Truth{Node: 3, Seq: 1}))
	if r.tr.Find(Key{1, 1}) != nil {
		t.Fatal("closed transaction outlived the retention window")
	}
}

// TestStallReviveIsSendDriven: idleness alone changes nothing — the
// read-side queries only stop counting the transaction as live — and the
// next send instant marks it dormant; its own late fragment revives it.
func TestStallReviveIsSendDriven(t *testing.T) {
	r := newRig(t, true, 0)
	k := &frame.Truth{Node: 1, Seq: 1}
	r.tr.FrameSent(r.intro(t, 1, 5, 4, k))
	tx := r.tr.Find(Key{1, 1})

	r.now = 150 * time.Millisecond
	if liveCount(r.tr) != 0 {
		t.Error("idle transaction still live")
	}
	if tx.Stalled || r.tr.Counts().Stalled != 0 || r.tr.OpenCount() != 1 {
		t.Fatalf("read-side query mutated state: stalled=%v counts=%+v", tx.Stalled, r.tr.Counts())
	}

	// An unrelated send prunes: the idle transaction goes dormant.
	r.tr.FrameSent(r.intro(t, 2, 6, 1, &frame.Truth{Node: 2, Seq: 1}))
	if !tx.Stalled || r.tr.Counts().Stalled != 1 {
		t.Fatalf("send instant did not stall: stalled=%v counts=%+v", tx.Stalled, r.tr.Counts())
	}

	// A late fragment revives it, and it can still close.
	r.tr.FrameSent(r.data(t, 1, 5, 0, []byte{1, 2}, k))
	if tx.Stalled || tx.Revives != 1 || r.tr.Counts().Revived != 1 || liveCount(r.tr) != 2 {
		t.Fatalf("revive: stalled=%v revives=%d counts=%+v", tx.Stalled, tx.Revives, r.tr.Counts())
	}
	r.tr.FrameSent(r.data(t, 1, 5, 2, []byte{3, 4}, k))
	if tx.State != Closed || r.tr.Counts().Closed != 1 {
		t.Fatalf("revived transaction did not close: %+v", tx)
	}
}

func TestFIFOAbandon(t *testing.T) {
	r := newRig(t, true, 0)
	r.tr.FrameSent(r.intro(t, 1, 5, 4, &frame.Truth{Node: 1, Seq: 1}))
	first := r.tr.Find(Key{1, 1})
	r.now = time.Millisecond
	// The sender's next transaction proves the first one dead, even
	// under the same key (a restarted selector redrawing it).
	r.tr.FrameSent(r.intro(t, 1, 5, 2, &frame.Truth{Node: 1, Seq: 2}))
	if first.State != Abandoned || first.ClosedAt != time.Millisecond {
		t.Fatalf("first transaction %+v, want abandoned at 1ms", first)
	}
	c := r.tr.Counts()
	if c.Abandoned != 1 || c.Opened != 2 || c.Collisions != 0 || c.Freshness != 0 {
		t.Fatalf("counts %+v", c)
	}
	if r.tr.Current(1) != r.tr.Find(Key{1, 2}) {
		t.Fatal("current transaction not the newer one")
	}
}

func TestCollisionPeersAndFreshness(t *testing.T) {
	r := newRig(t, true, 0)
	r.tr.FrameSent(r.intro(t, 1, 5, 4, &frame.Truth{Node: 1, Seq: 1}))
	r.tr.FrameSent(r.intro(t, 3, 6, 4, &frame.Truth{Node: 3, Seq: 1}))
	r.tr.FrameSent(r.intro(t, 2, 5, 4, &frame.Truth{Node: 2, Seq: 1}))
	a, b, other := r.tr.Find(Key{1, 1}), r.tr.Find(Key{2, 1}), r.tr.Find(Key{3, 1})
	if r.tr.Counts().Collisions != 1 || !a.Collided || !b.Collided || other.Collided {
		t.Fatalf("collision marks a=%v b=%v other=%v counts=%+v", a.Collided, b.Collided, other.Collided, r.tr.Counts())
	}

	// A dormant transaction no longer occupies its key.
	r.now = 150 * time.Millisecond
	r.tr.FrameSent(r.intro(t, 4, 5, 4, &frame.Truth{Node: 4, Seq: 1}))
	if r.tr.Counts().Collisions != 1 || r.tr.Find(Key{4, 1}).Collided {
		t.Fatalf("collision with dormant transactions: %+v", r.tr.Counts())
	}

	// Same transaction, different identifier: a mid-flight change.
	r.tr.FrameSent(r.data(t, 4, 9, 0, []byte{1}, &frame.Truth{Node: 4, Seq: 1}))
	if r.tr.Counts().Freshness != 1 {
		t.Fatalf("freshness = %d, want 1", r.tr.Counts().Freshness)
	}
}

func TestViolations(t *testing.T) {
	r := newRig(t, true, time.Second)
	k := &frame.Truth{Node: 1, Seq: 1}
	// Data before any introduction opens the transaction but contradicts
	// ground truth.
	r.tr.FrameSent(r.data(t, 1, 5, 0, []byte{1}, k))
	if r.rec.violations != 1 || r.tr.Counts().Opened != 1 {
		t.Fatalf("data before intro: violations=%d counts=%+v", r.rec.violations, r.tr.Counts())
	}
	k2 := &frame.Truth{Node: 1, Seq: 2}
	r.tr.FrameSent(r.intro(t, 1, 6, 2, k2))
	r.tr.FrameSent(r.data(t, 1, 6, 1, []byte{1, 2}, k2)) // past the end
	if r.rec.violations != 2 {
		t.Fatalf("overrun: violations=%d", r.rec.violations)
	}
	r.tr.FrameSent(r.data(t, 1, 6, 0, []byte{8, 9}, k2))
	tx := r.tr.Find(Key{1, 2})
	if tx.State != Closed {
		t.Fatalf("transaction %+v not closed", tx)
	}

	// Relayed copies of the retired transaction are checked, never
	// reopened: a faithful copy is clean, altered ones are violations.
	r.tr.FrameSent(r.data(t, 7, 6, 0, []byte{8, 9}, k2))
	r.tr.FrameSent(r.intro(t, 7, 6, 2, k2))
	if r.rec.violations != 2 {
		t.Fatalf("faithful relay copies flagged: violations=%d", r.rec.violations)
	}
	r.tr.FrameSent(r.data(t, 7, 6, 0, []byte{8, 8}, k2))
	r.tr.FrameSent(r.intro(t, 7, 6, 3, k2))
	if r.rec.violations != 4 || r.tr.Counts().Opened != 2 || r.tr.Counts().Closed != 1 {
		t.Fatalf("altered relay copies: violations=%d counts=%+v", r.rec.violations, r.tr.Counts())
	}
}

// TestRetentionQueueKeepsReopenedKey: a key whose retired entry expired
// can reopen and retire again; the expired entry's queue slot must not
// evict the newer one.
func TestRetentionQueueKeepsReopenedKey(t *testing.T) {
	r := newRig(t, true, 50*time.Millisecond)
	k := &frame.Truth{Node: 1, Seq: 1}
	r.tr.FrameSent(r.intro(t, 1, 5, 1, k))
	r.tr.FrameSent(r.data(t, 1, 5, 0, []byte{1}, k))
	old := r.tr.Find(Key{1, 1})

	// Past the window: the next send expires the old entry and the same
	// key opens afresh.
	r.now = 60 * time.Millisecond
	r.tr.FrameSent(r.intro(t, 1, 5, 1, k))
	reopened := r.tr.Find(Key{1, 1})
	if reopened == old || reopened.State != Open {
		t.Fatalf("key did not reopen: %+v", reopened)
	}
	r.tr.FrameSent(r.data(t, 1, 5, 0, []byte{2}, k))

	// The old entry's expiry instant has long passed; pruning again must
	// keep the reopened transaction for its own window.
	r.now = 100 * time.Millisecond
	r.tr.FrameSent(r.intro(t, 2, 9, 1, &frame.Truth{Node: 2, Seq: 1}))
	if r.tr.Find(Key{1, 1}) != reopened {
		t.Fatal("reopened transaction evicted by the expired entry")
	}
	r.now = 111 * time.Millisecond
	r.tr.FrameSent(r.intro(t, 3, 9, 1, &frame.Truth{Node: 3, Seq: 1}))
	if r.tr.Find(Key{1, 1}) != nil {
		t.Fatal("reopened transaction outlived its own window")
	}
}

func TestUnattributedAndResolver(t *testing.T) {
	r := newRig(t, true, 0)
	r.tr.FrameSent(radio.Frame{From: 1}) // undecodable
	if c := r.tr.Counts(); c.Unattributed != 1 || c.FragmentsSent != 0 {
		t.Fatalf("garbage counts %+v", c)
	}

	// Uninstrumented: no trailer, so frames are unattributable until a
	// resolver supplies identities.
	u := newRig(t, false, 0)
	u.tr.FrameSent(u.intro(t, 1, 5, 2, nil))
	if c := u.tr.Counts(); c.Unattributed != 1 || c.FragmentsSent != 1 || c.Opened != 0 {
		t.Fatalf("trailerless counts %+v", c)
	}
	u.tr.SetResolver(func(f *Frame) Key { return Key{Node: uint32(f.Raw.From), Seq: 1} })
	u.tr.FrameSent(u.intro(t, 1, 5, 2, nil))
	if tx := u.tr.Current(1); tx == nil || tx.Truth != (Key{1, 1}) || u.tr.Instrumented() {
		t.Fatalf("resolved transaction %+v", tx)
	}
}

func TestFateAttribution(t *testing.T) {
	r := newRig(t, true, 0)
	k := &frame.Truth{Node: 1, Seq: 1}
	fi := r.intro(t, 1, 5, 1, k)
	r.tr.FrameSent(fi)
	r.tr.FrameFate(2, fi, radio.FateDelivered)
	r.tr.FrameFate(3, fi, radio.FateCollided)
	r.tr.FrameFate(2, radio.Frame{From: 1, Payload: []byte{0xFF}}, radio.FateDelivered)
	r.tr.FrameFate(2, r.intro(t, 1, 5, 1, &frame.Truth{Node: 9, Seq: 9}), radio.FateDelivered)
	tx := r.tr.Find(Key{1, 1})
	if len(r.rec.fates) != 4 || r.rec.fateTx[0] != tx || r.rec.fateTx[1] != tx {
		t.Fatalf("fates %v attributed to %v", r.rec.fates, r.rec.fateTx)
	}
	if r.rec.nilFrames != 1 || r.rec.fateTx[2] != nil || r.rec.fateTx[3] != nil {
		t.Fatalf("undecodable or unknown frames attributed: nil=%d tx=%v", r.rec.nilFrames, r.rec.fateTx)
	}
	if c := r.tr.Counts(); c.Opened != 1 || c.FragmentsSent != 1 {
		t.Fatalf("fates changed lifecycle: %+v", c)
	}
}

func TestUnwrapAndAdaptiveKeys(t *testing.T) {
	var unwraps int
	tr, err := New(Config{
		AFF: aff.Config{Space: core.MustSpace(16), Instrument: true, AdaptiveWidth: true},
		Unwrap: func(p []byte) ([]byte, bool) {
			unwraps++
			if len(p) == 0 || p[0] != 0xEE {
				return nil, false
			}
			return p[1:], true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	tr.Attach(rec)
	for i, w := range []int{4, 9} {
		codec := frame.Codec{IDBits: w, Instrument: true, InBandWidth: true}
		p, bits, err := codec.EncodeIntro(frame.Intro{ID: 3, TotalLen: 4, Truth: &frame.Truth{Node: uint32(i + 1), Seq: 1}})
		if err != nil {
			t.Fatal(err)
		}
		f := radio.Frame{From: radio.NodeID(i + 1), Payload: append([]byte{0xEE}, p...), Bits: bits + 8}
		tr.FrameSent(f)
		tr.FrameFate(7, f, radio.FateDelivered) // served by the send's decode
	}
	tr.FrameSent(radio.Frame{From: 1, Payload: []byte{0x00, 0x01}})
	c := tr.Counts()
	// A 4-bit id 3 and a 9-bit id 3 are distinct keys, not a collision.
	if c.Opened != 2 || c.Collisions != 0 || c.Unattributed != 1 {
		t.Fatalf("counts %+v", c)
	}
	if a, b := tr.Find(Key{1, 1}), tr.Find(Key{2, 1}); a.Key != aff.WidthKey(4, 3) || b.Key != aff.WidthKey(9, 3) {
		t.Fatalf("keys %x %x", a.Key, b.Key)
	}
	if unwraps != 3 {
		t.Fatalf("unwraps = %d, want 3 (one per transmission)", unwraps)
	}
}
