// Package truth is the ground-truth transaction tracker of the Section
// 5.1 methodology: the one lifecycle state machine behind both the
// conformance oracle (internal/oracle) and the span tracer
// (internal/span).
//
// From the simulator's privileged viewpoint (radio.FateObserver) it sees
// every frame put on air, decodes it once against the AFF wire format,
// and keys it to its transaction by the instrumentation trailer's (node,
// seq) pair. On that key it runs the lifecycle:
//
//   - a transaction opens when its first fragment airs and closes when its
//     final data fragment does;
//   - a transaction with no send activity for the stall timeout (the AFF
//     reassembly timeout) goes dormant — a churned node's queue dies with
//     its radio — and stops counting toward density and collisions; a late
//     fragment after a long CSMA contention gap revives it;
//   - senders transmit from a FIFO queue, so a sender's new transaction
//     abandons its previous one if that is still open (a crash dropped the
//     rest of its queue), rather than reading as a concurrent key reuse;
//   - live transactions are listed per on-air reassembly key, which gives
//     both the true collision count and every party to a collision;
//   - retired (closed or abandoned) transactions stay findable for a
//     retention window, expired oldest-first from a queue, so relayed
//     copies and late receiver verdicts still attribute;
//   - each transaction keeps its introduction's length and checksum and
//     the payload bytes its sender put on air.
//
// Lifecycle state changes only when a frame is sent. The read-side
// queries (Find, Current, EachLive, OpenCount) never mutate it, so a
// consumer that probes at other instants cannot shift another consumer's
// view.
//
// Consumers attach as Observers and receive every attributed frame and
// per-receiver fate. Frames without a trailer are unattributable, unless
// a resolver supplies a synthetic identity (the span tracer's per-sender
// FIFO matching for uninstrumented wire formats).
//
// The tracker is strictly passive: it draws no randomness, schedules no
// events and never mutates a payload, so attaching it cannot perturb a
// run.
package truth

import (
	"bytes"
	"errors"
	"time"

	"retri/internal/aff"
	"retri/internal/frame"
	"retri/internal/poison"
	"retri/internal/radio"
)

// Key identifies one true transaction: the instrumentation trailer's
// (node, sequence) pair, unique by construction. Node is the originating
// sender's radio identity.
type Key struct{ Node, Seq uint32 }

// State is a transaction's position in the lifecycle.
type State int

const (
	// Open: at least one fragment aired; the final one has not.
	Open State = iota + 1
	// Closed: the final data fragment went on air.
	Closed
	// Abandoned: the sender's FIFO queue moved on before it finished.
	Abandoned
)

// Tx is the ground-truth record of one transaction. Consumers read it;
// only the tracker writes its lifecycle fields.
type Tx struct {
	Truth  Key
	Sender radio.NodeID
	Key    uint64 // on-air reassembly key (WidthKey in adaptive mode)

	State    State
	OpenedAt time.Duration
	ClosedAt time.Duration // valid once retired
	// Stalled marks an open transaction dormant as of the last send
	// instant.
	Stalled bool
	Revives int
	// Collided reports the transaction shared a live reassembly key with
	// another transaction.
	Collided bool

	// HaveLen reports that the introduction aired, fixing TotalLen and
	// Checksum.
	HaveLen  bool
	TotalLen int
	Checksum uint16

	// Tag is a consumer's annotation: the span tracer files the span
	// recording this transaction here.
	Tag any

	lastSent time.Duration
	// mem holds the payload the sender has aired, then one coverage flag
	// per payload byte (nonzero once a fragment covered it). It comes
	// from the tracker's pool when the introduction airs and goes back,
	// overwritten by poison.Fill, when the record leaves the retention
	// window: Find stops returning the record then.
	mem []byte
}

// Payload returns the bytes the sender has put on air so far; positions
// no fragment covered yet read zero. The slice is the tracker's: it is
// valid while Find returns the record.
func (tx *Tx) Payload() []byte {
	if tx.mem == nil {
		return nil
	}
	return tx.mem[:tx.TotalLen:tx.TotalLen]
}

// Covers reports whether b at offset is exactly what the sender put on
// air: every byte covered by a sent fragment, and equal to it.
func (tx *Tx) Covers(offset int, b []byte) bool {
	if !tx.HaveLen || tx.mem == nil || offset+len(b) > tx.TotalLen {
		return false
	}
	covered := tx.mem[tx.TotalLen:]
	for i, c := range b {
		at := offset + i
		if covered[at] == 0 || tx.mem[at] != c {
			return false
		}
	}
	return true
}

// Frame is one observed frame, decoded once against the AFF wire format.
// Observers must not retain it past the callback.
type Frame struct {
	Raw   radio.Frame
	Intro bool
	Truth *frame.Truth // nil when uninstrumented or the trailer was rejected
	Key   uint64       // reassembly key
	ID    uint64       // raw identifier
	Width int          // identifier width in bits
	// Offset is the data offset; -1 for an introduction.
	Offset   int
	TotalLen int    // introduction only
	Checksum uint16 // introduction only
	Payload  []byte // data only; aliases the frame's bytes
}

// Observer consumes the tracker's attributed feed. Every call is
// synchronous with the medium event that caused it. An observer added
// with Attach reads a *Tx only during a callback or while Find returns
// it: the tracker reuses a record once it leaves the retention window.
// One that keeps records longer is added with AttachKeeper.
type Observer interface {
	// Opened fires when a transaction's first fragment (f) airs, after
	// FIFO abandonment of the sender's previous transaction and collision
	// marking.
	Opened(tx *Tx, f *Frame)
	// Sent fires once per attributed fragment put on air, after the
	// lifecycle update. violation reports a fragment that contradicts
	// ground truth: data before its transaction's introduction, data past
	// its end, or a relayed copy of a retired transaction that differs
	// from what its sender aired.
	Sent(f *Frame, tx *Tx, violation bool)
	// Fate fires once per (frame, receiver) reception verdict. f is nil
	// when the frame is undecodable; tx is nil when its trailer names no
	// known transaction (or it has none).
	Fate(to radio.NodeID, f *Frame, tx *Tx, fate radio.Fate)
}

// Counts are the tracker's lifecycle tallies.
type Counts struct {
	Opened, Closed, Stalled, Revived, Abandoned int64
	// FragmentsSent counts decodable frames put on air.
	FragmentsSent int64
	// Unattributed counts sent frames the tracker could not key: the
	// envelope or AFF decode failed, or there was no trailer and no
	// resolver.
	Unattributed int64
	// Collisions counts transactions opening on a reassembly key already
	// carrying a live transaction.
	Collisions int64
	// Freshness counts fragments of an open transaction carrying a
	// different reassembly key than the transaction opened with.
	Freshness int64
}

// Config parameterizes a Tracker.
type Config struct {
	// AFF is the wire format of the stack under observation. Instrument
	// selects truth-keyed attribution.
	AFF aff.Config
	// Now supplies virtual time (pass the engine's clock).
	Now func() time.Duration
	// Retain keeps retired transactions findable. Zero selects the stall
	// timeout. Under multi-hop relaying, size it to cover the worst relay
	// latency: a relayed copy airing after its transaction was forgotten
	// would be misread as a brand-new transaction.
	Retain time.Duration
	// Unwrap, when set, strips a transport envelope (the flood relay's
	// hop-scope header) from every observed frame before AFF decoding;
	// ok=false leaves the frame unattributed. Nil observes raw payloads.
	Unwrap func(payload []byte) (inner []byte, ok bool)
}

// defaultStall applies when the AFF config sets no reassembly timeout.
const defaultStall = 250 * time.Millisecond

// Tracker runs the lifecycle state machine. It implements
// radio.FateObserver; install it on the medium's fate slot. Like every
// protocol component it is single-threaded within one trial.
type Tracker struct {
	codec      frame.Codec
	instrument bool
	now        func() time.Duration
	stall      time.Duration
	retain     time.Duration
	unwrap     func(payload []byte) ([]byte, bool)
	resolve    func(f *Frame) Key
	observers  []Observer

	open   map[Key]*Tx
	closed map[Key]*Tx
	// retained queues retired transactions in retirement order, which is
	// also expiry order.
	retained []*Tx
	// current tracks each sender's latest transaction: a new one from S is
	// proof S's previous one is finished or dead, never concurrent.
	current map[radio.NodeID]Key
	// live lists open, non-dormant transactions per reassembly key.
	live map[uint64][]*Tx

	// keep is set once an observer keeps records; from then on a record
	// leaving the retention window is never reused, only its mem.
	keep bool
	// spareTx, spareMem and spareLive recycle retired records, their
	// payload storage and live's emptied per-key lists, so a warm tracker
	// opens, closes and expires a transaction without allocating.
	spareTx   []*Tx
	spareMem  [][]byte
	spareLive [][]*Tx

	// last memoizes the latest decode: a transmission's verdicts arrive
	// back to back after its send, one per receiver, all for the payload
	// the send decoded. The memo is keyed by lastBytes, the tracker's own
	// copy of the decoded bytes, never by the frame's address: the medium
	// recycles frame buffers, so a later frame can arrive at the same
	// address with different bytes.
	last      Frame
	lastOK    bool
	lastBytes []byte
	// frag is the decode scratch behind last; last.Truth points into it,
	// and last.Payload into lastBytes.
	frag frame.Fragment

	counts Counts
}

var _ radio.FateObserver = (*Tracker)(nil)

// New builds a tracker for the given wire format.
func New(cfg Config) (*Tracker, error) {
	if cfg.AFF.Space.Bits() < 1 {
		return nil, errors.New("truth: config needs an identifier space")
	}
	if cfg.Now == nil {
		cfg.Now = func() time.Duration { return 0 }
	}
	stall := cfg.AFF.ReassemblyTimeout
	if stall <= 0 {
		stall = defaultStall
	}
	if cfg.Retain <= 0 {
		cfg.Retain = stall
	}
	return &Tracker{
		codec:      cfg.AFF.Codec(),
		instrument: cfg.AFF.Instrument,
		now:        cfg.Now,
		stall:      stall,
		retain:     cfg.Retain,
		unwrap:     cfg.Unwrap,
		open:       make(map[Key]*Tx),
		closed:     make(map[Key]*Tx),
		current:    make(map[radio.NodeID]Key),
		live:       make(map[uint64][]*Tx),
	}, nil
}

// Attach adds a consumer of the attributed feed that holds no *Tx past
// its callbacks (see Observer).
func (t *Tracker) Attach(o Observer) { t.observers = append(t.observers, o) }

// AttachKeeper adds a consumer that keeps *Tx records for the rest of
// the run, as the span tracer does with each span's record. The tracker
// then never reuses a record, so a kept one keeps its lifecycle fields;
// its Payload still ends with the retention window.
func (t *Tracker) AttachKeeper(o Observer) {
	t.keep = true
	t.Attach(o)
}

// SetResolver supplies identities for frames without a trailer: resolve
// returns the key of the transaction f belongs to (its Node must be the
// sender), consulting Current to continue or begin one.
func (t *Tracker) SetResolver(resolve func(f *Frame) Key) { t.resolve = resolve }

// Instrumented reports whether the observed wire format carries Truth
// trailers.
func (t *Tracker) Instrumented() bool { return t.instrument }

// Now returns the tracker's virtual time.
func (t *Tracker) Now() time.Duration { return t.now() }

// Counts returns the lifecycle tallies so far.
func (t *Tracker) Counts() Counts { return t.counts }

// decode returns rf unwrapped and decoded, or nil when it cannot be read.
// The result is the tracker's scratch, valid until the next decode.
// Decoding is a pure function of the bytes, so a frame whose bytes equal
// the memo's reuses its decode.
func (t *Tracker) decode(rf radio.Frame) *Frame {
	if t.lastBytes == nil || !bytes.Equal(t.lastBytes, rf.Payload) {
		t.lastBytes = append(t.lastBytes[:0], rf.Payload...)
		t.lastOK = t.decodeInto(&t.last, t.lastBytes)
	}
	t.last.Raw = rf
	if !t.lastOK {
		return nil
	}
	return &t.last
}

// decodeInto unwraps and decodes one payload into dst.
func (t *Tracker) decodeInto(dst *Frame, payload []byte) bool {
	if t.unwrap != nil {
		inner, ok := t.unwrap(payload)
		if !ok {
			return false
		}
		payload = inner
	}
	var err error
	if t.frag, err = t.codec.Decode(payload); err != nil {
		return false
	}
	fr := &t.frag
	*dst = Frame{Intro: fr.Intro, ID: fr.ID, Offset: fr.Offset, Payload: fr.Payload}
	if fr.HasTruth {
		dst.Truth = &fr.Truth
	}
	if fr.Intro {
		dst.Offset, dst.TotalLen, dst.Checksum = -1, fr.TotalLen, fr.Checksum
	}
	// The key is the one the reassembler files the fragment under. A zero
	// decoded width means the fixed format, at the codec's width.
	dst.Key, dst.Width = aff.FragmentKey(fr), fr.IDBits
	if dst.Width == 0 {
		dst.Width = t.codec.IDBits
	}
	return true
}

// FrameSent advances the lifecycle: prune, decode, attribute, notify.
func (t *Tracker) FrameSent(rf radio.Frame) {
	now := t.now()
	t.prune(now)
	f := t.decode(rf)
	if f == nil {
		t.counts.Unattributed++
		return
	}
	t.counts.FragmentsSent++
	var k Key
	switch {
	case f.Truth != nil:
		k = Key{f.Truth.Node, f.Truth.Seq}
	case t.resolve != nil:
		k = t.resolve(f)
	default:
		t.counts.Unattributed++
		return
	}
	tx, violation := t.attribute(k, f, now)
	for _, o := range t.observers {
		o.Sent(f, tx, violation)
	}
}

// attribute files one sent fragment against its transaction.
func (t *Tracker) attribute(k Key, f *Frame, now time.Duration) (*Tx, bool) {
	if tx, ok := t.closed[k]; ok {
		// A relay re-airing a fragment of a transaction whose originator
		// already finished (or walked away from) it: check the copy
		// against ground truth without reopening anything.
		if f.Intro {
			return tx, tx.Key != f.Key || (tx.HaveLen && (tx.TotalLen != f.TotalLen || tx.Checksum != f.Checksum))
		}
		return tx, tx.Key != f.Key || !tx.Covers(f.Offset, f.Payload)
	}
	tx := t.lookup(k, f, now)
	if f.Intro {
		if !tx.HaveLen {
			tx.HaveLen = true
			tx.TotalLen = f.TotalLen
			tx.Checksum = f.Checksum
			tx.mem = t.takeMem(2 * f.TotalLen)
		}
		return tx, false
	}
	end := f.Offset + len(f.Payload)
	if !tx.HaveLen || end > tx.TotalLen {
		// The fragmenter always airs the introduction first and never
		// overruns it: either is a protocol bug.
		return tx, true
	}
	copy(tx.mem[f.Offset:], f.Payload)
	covered := tx.mem[tx.TotalLen+f.Offset : tx.TotalLen+end]
	for i := range covered {
		covered[i] = 1
	}
	if end == tx.TotalLen {
		t.retire(tx, Closed, now)
	}
	return tx, false
}

// lookup finds or opens the transaction for a key, checking the
// invariants a fragment's arrival can violate.
func (t *Tracker) lookup(k Key, f *Frame, now time.Duration) *Tx {
	if tx, ok := t.open[k]; ok {
		if tx.Key != f.Key {
			// A transaction changed identifier (or width) mid-flight.
			t.counts.Freshness++
		}
		if tx.Stalled {
			// A fragment after a long contention gap: dormant, not dead.
			tx.Stalled = false
			t.addLive(tx)
			tx.Revives++
			t.counts.Revived++
		}
		tx.lastSent = now
		return tx
	}
	// A new transaction from this sender finishes off its previous one:
	// the transmit queue is FIFO, so fragments of an older transaction can
	// never air once a newer one has begun. Retiring it here, rather than
	// flagging a freshness violation when a restarted selector
	// legitimately redraws the same key, keeps the audit aligned with
	// ground truth.
	sender := radio.NodeID(k.Node)
	if prev, ok := t.current[sender]; ok && prev != k {
		if pt, live := t.open[prev]; live {
			t.retire(pt, Abandoned, now)
		}
	}
	t.current[sender] = k
	tx := t.newTx()
	*tx = Tx{Truth: k, Sender: sender, Key: f.Key, State: Open, OpenedAt: now, lastSent: now}
	// True collisions: the key already carries another live transaction,
	// so receivers will merge fragments of distinct transactions.
	if peers := t.live[f.Key]; len(peers) > 0 {
		t.counts.Collisions++
		tx.Collided = true
		for _, p := range peers {
			p.Collided = true
		}
	}
	t.open[k] = tx
	t.addLive(tx)
	t.counts.Opened++
	for _, o := range t.observers {
		o.Opened(tx, f)
	}
	return tx
}

// retire moves a transaction from the open set to the retention queue.
func (t *Tracker) retire(tx *Tx, st State, now time.Duration) {
	delete(t.open, tx.Truth)
	if !tx.Stalled {
		t.removeLive(tx)
	}
	tx.State = st
	tx.ClosedAt = now
	t.closed[tx.Truth] = tx
	t.retained = append(t.retained, tx)
	if st == Closed {
		t.counts.Closed++
	} else {
		t.counts.Abandoned++
	}
}

// prune marks idle open transactions dormant and expires retired ones
// past the retention window, oldest first.
func (t *Tracker) prune(now time.Duration) {
	for _, tx := range t.open {
		if !tx.Stalled && now-tx.lastSent > t.stall {
			tx.Stalled = true
			t.removeLive(tx)
			t.counts.Stalled++
		}
	}
	n := 0
	for ; n < len(t.retained) && now-t.retained[n].ClosedAt > t.retain; n++ {
		tx := t.retained[n]
		// The key may have reopened and retired again since: only the
		// entry that owns it may evict it.
		if t.closed[tx.Truth] == tx {
			delete(t.closed, tx.Truth)
		}
		t.release(tx)
	}
	if n > 0 {
		// Slide the survivors to the front, so the queue keeps one
		// backing array.
		m := copy(t.retained, t.retained[n:])
		clear(t.retained[m:])
		t.retained = t.retained[:m]
	}
}

// newTx returns a zeroed record, recycled when one is spare.
func (t *Tracker) newTx() *Tx {
	if n := len(t.spareTx); n > 0 {
		tx := t.spareTx[n-1]
		t.spareTx = t.spareTx[:n-1]
		return tx
	}
	return &Tx{}
}

// takeMem returns n zeroed bytes, reusing released storage when the last
// released block is large enough.
func (t *Tracker) takeMem(n int) []byte {
	var m []byte
	if i := len(t.spareMem) - 1; i >= 0 {
		m, t.spareMem = t.spareMem[i], t.spareMem[:i]
	}
	if m == nil || cap(m) < n {
		return make([]byte, n)
	}
	m = m[:n]
	clear(m)
	return m
}

// release recycles a record that left the retention window: its storage
// always, and the record itself unless an observer keeps records.
func (t *Tracker) release(tx *Tx) {
	if tx.mem != nil {
		poison.Fill(tx.mem)
		t.spareMem = append(t.spareMem, tx.mem)
		tx.mem = nil
	}
	if !t.keep {
		*tx = Tx{}
		t.spareTx = append(t.spareTx, tx)
	}
}

func (t *Tracker) addLive(tx *Tx) {
	peers, ok := t.live[tx.Key]
	if n := len(t.spareLive); !ok && n > 0 {
		peers, t.spareLive = t.spareLive[n-1], t.spareLive[:n-1]
	}
	t.live[tx.Key] = append(peers, tx)
}

func (t *Tracker) removeLive(tx *Tx) {
	peers := t.live[tx.Key]
	for i, p := range peers {
		if p == tx {
			last := len(peers) - 1
			copy(peers[i:], peers[i+1:])
			peers[last] = nil
			peers = peers[:last]
			break
		}
	}
	if len(peers) > 0 {
		t.live[tx.Key] = peers
		return
	}
	delete(t.live, tx.Key)
	if cap(peers) > 0 {
		t.spareLive = append(t.spareLive, peers)
	}
}

// FrameFate hands one receiver's verdict to the observers, attributed by
// trailer. Lifecycle state is untouched: fates arrive at delivery
// instants, not send instants.
func (t *Tracker) FrameFate(to radio.NodeID, rf radio.Frame, fate radio.Fate) {
	f := t.decode(rf)
	var tx *Tx
	if f != nil && f.Truth != nil {
		tx = t.Find(Key{f.Truth.Node, f.Truth.Seq})
	}
	for _, o := range t.observers {
		o.Fate(to, f, tx, fate)
	}
}

// Find returns the transaction for a key, open or retired within the
// retention window, or nil.
func (t *Tracker) Find(k Key) *Tx {
	if tx, ok := t.open[k]; ok {
		return tx
	}
	return t.closed[k]
}

// Current returns the sender's open transaction, or nil.
func (t *Tracker) Current(sender radio.NodeID) *Tx {
	k, ok := t.current[sender]
	if !ok {
		return nil
	}
	return t.open[k]
}

// EachLive calls fn for every transaction live right now: open, not
// dormant, and not idle past the stall timeout. It changes no state, so
// a transaction idle past the timeout reads as not live before the next
// send instant marks it dormant.
func (t *Tracker) EachLive(fn func(*Tx)) {
	now := t.now()
	for _, tx := range t.open {
		if !tx.Stalled && now-tx.lastSent <= t.stall {
			fn(tx)
		}
	}
}

// OpenCount reports open transactions medium-wide, dormant included.
func (t *Tracker) OpenCount() int { return len(t.open) }
