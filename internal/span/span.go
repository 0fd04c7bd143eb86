// Package span is a zero-perturbation transaction-lifecycle tracer for
// the AFF stack. Where the oracle (internal/oracle) audits *aggregate*
// safety properties from the medium's privileged viewpoint, span tracing
// keeps the *individual* story of every transaction as a causal chain:
//
//   - the selector draw that produced its identifier (strategy, width,
//     avoid-set redraws);
//   - every fragment it put on air and that fragment's channel fate at
//     each receiver (delivered, collided, Gilbert-Elliott loss,
//     bit-corrupted, half-duplex miss, out of range);
//   - reassembly progress at receivers: delivery, never-misdeliver
//     rejection (checksum or conflict), or expiry;
//   - ARQ retry links joining a retransmission's fresh identifier back
//     to its parent attempt, so a retry chain reads as one thread.
//
// The lifecycle itself — open, stall, revive, FIFO-abandon, close,
// collision parties, retention — is the ground-truth tracker's
// (internal/truth): the tracer is one of its consumers, alongside the
// oracle when both are attached, so span-derived lifecycle counts are the
// oracle's by construction. The tracer adds the sender- and
// receiver-side hooks (node.SpanSink, arq.AttemptObserver,
// adapt.Config.OnChange) the tracker does not see.
//
// Like the oracle it is strictly passive: no randomness, no scheduled
// events, no payload mutation. Attaching it cannot perturb a run.
//
// It works in two attribution modes. With aff.Config.Instrument the
// Truth trailer keys every fragment to its transaction exactly (the
// conformance-grade mode). Without instrumentation — a flagless figure
// whose wire format must not change — the tracer resolves identities for
// the tracker by (sender, reassembly key) against each sender's FIFO
// transmit order, which is exact for everything except a sender redrawing
// the same identifier for consecutive transactions without an
// intervening intro.
package span

import (
	"time"

	"retri/internal/aff"
	"retri/internal/frame"
	"retri/internal/radio"
	"retri/internal/truth"
)

// skey addresses a span by its sender and on-air reassembly key — the
// only identity visible without instrumentation.
type skey struct {
	sender radio.NodeID
	key    uint64
}

// arqKey addresses an ARQ stream: one endpoint's one sequence number.
type arqKey struct {
	sender radio.NodeID
	seq    uint32
}

// State is a span's position in the transaction lifecycle.
type State int

const (
	// StateQueued: the selector drew an identifier but no fragment has
	// aired yet (still in the transmit queue, or the queue died).
	StateQueued State = iota
	// StateOpen: at least one fragment aired; the final one has not.
	StateOpen
	// StateClosed: the final data fragment went on air.
	StateClosed
	// StateAbandoned: the sender's FIFO queue moved on to a newer
	// transaction before this one finished (a crash dropped its tail).
	StateAbandoned
)

func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateOpen:
		return "open"
	case StateClosed:
		return "closed"
	case StateAbandoned:
		return "abandoned"
	}
	return "unknown"
}

// Frag is one fragment of a span: what went on air and how the channel
// treated each copy (counters are per receiver, so one broadcast frame
// contributes to several).
type Frag struct {
	Intro  bool          `json:"intro,omitempty"`
	Offset int           `json:"offset"`
	Len    int           `json:"len"`
	At     time.Duration `json:"at_ns"`

	Delivered  int `json:"delivered,omitempty"`
	Collided   int `json:"collided,omitempty"`
	RandomLoss int `json:"random_loss,omitempty"`
	Corrupted  int `json:"corrupted,omitempty"`
	NotHeard   int `json:"not_heard,omitempty"`
	HalfDuplex int `json:"half_duplex,omitempty"`
}

// Event is one receiver-side lifecycle event attributed to a span.
type Event struct {
	At   time.Duration `json:"at_ns"`
	Node radio.NodeID  `json:"node"`
	// Kind is one of "delivered", "rejected-checksum",
	// "rejected-conflict", "expired", "evicted".
	Kind string `json:"kind"`
}

// Span is the causal record of one transaction attempt.
type Span struct {
	Index  int
	Truth  *frame.Truth // nil when attribution is FIFO-based
	Sender radio.NodeID
	Key    uint64 // on-air reassembly key (WidthKey in adaptive mode)
	Width  int    // identifier width in bits
	ID     uint64 // raw identifier (Key without the width prefix)

	Strategy string // selector name that drew the identifier
	Redraws  int    // avoid-set redraws before this identifier stuck

	ARQSeq int // ARQ stream sequence, -1 when not an ARQ attempt
	Retry  int // retransmission count so far (0 = first attempt), -1 when not ARQ
	Parent int // Index of the previous attempt in the retry chain, -1 for none

	QueuedAt time.Duration // TxOpen instant; -1 for synthesized spans

	Frags  []Frag
	Events []Event

	FragsSent        int
	Deliveries       int // complete packets handed up by receivers
	RejectedChecksum int
	RejectedConflict int
	Expired          int
	Evicted          int  // receivers that cap-evicted this span's partial state
	BudgetExhausted  bool // ARQ abandoned the retry chain at this attempt
	Anomalies        int  // frames that violated fragmenter invariants

	// tx is the ground-truth lifecycle record, nil while queued.
	tx     *truth.Tx
	fragAt map[int]int // offset (-1 intro) -> index into Frags
}

// State reports the span's lifecycle position.
func (s *Span) State() State {
	if s.tx == nil {
		return StateQueued
	}
	switch s.tx.State {
	case truth.Closed:
		return StateClosed
	case truth.Abandoned:
		return StateAbandoned
	}
	return StateOpen
}

// Stalled reports whether the span's transaction is dormant.
func (s *Span) Stalled() bool { return s.tx != nil && s.tx.Stalled }

// Outcome classifies what ultimately happened to the transaction, in
// precedence order: delivery evidence wins, then the failure root
// causes, then the residual states.
func (s *Span) Outcome() string {
	switch st := s.State(); {
	case s.Deliveries > 0:
		return "delivered"
	case s.tx != nil && s.tx.Collided:
		return "collided"
	case s.RejectedChecksum+s.RejectedConflict > 0:
		return "rejected"
	case s.Evicted > 0:
		// Receiver-side graceful degradation: the MaxPartials cap evicted
		// this span's partial state to stay under the memory budget.
		return "reassembly-evicted"
	case s.BudgetExhausted:
		// Sender-side graceful degradation: the ARQ endpoint gave up the
		// retry chain (possibly early, under loss-aware budget shedding).
		return "retry-budget-exhausted"
	case s.Expired > 0:
		return "expired"
	case st == StateAbandoned:
		return "abandoned"
	case st == StateQueued:
		return "never-aired"
	case st == StateOpen && s.Stalled():
		return "stalled"
	case st == StateOpen:
		return "in-flight"
	}
	// Closed with no receiver evidence: every copy died on the channel.
	return "lost"
}

// WidthChange is one adaptive-width controller move.
type WidthChange struct {
	At   time.Duration `json:"at_ns"`
	Node radio.NodeID  `json:"node"`
	From int           `json:"from"`
	To   int           `json:"to"`
}

// Report aggregates span lifecycle counts. The lifecycle fields are the
// tracker's, field for field the ones the oracle reports.
type Report struct {
	Spans               int64 // spans recorded, including never-aired
	Opened              int64
	Closed              int64
	Stalled             int64
	Revived             int64
	Abandoned           int64
	FragmentsSent       int64
	CollisionEvents     int64
	FreshnessViolations int64
	Unattributed        int64 // send-side frames the tracker could not read
	PacketsDelivered    int64 // complete packets handed up by receivers
	OrphanEvents        int64 // receiver/fate events with no matching span
	Anomalies           int64 // fragmenter-invariant violations observed
}

// Merge folds another report into this one.
func (r *Report) Merge(o Report) {
	r.Spans += o.Spans
	r.Opened += o.Opened
	r.Closed += o.Closed
	r.Stalled += o.Stalled
	r.Revived += o.Revived
	r.Abandoned += o.Abandoned
	r.FragmentsSent += o.FragmentsSent
	r.CollisionEvents += o.CollisionEvents
	r.FreshnessViolations += o.FreshnessViolations
	r.Unattributed += o.Unattributed
	r.PacketsDelivered += o.PacketsDelivered
	r.OrphanEvents += o.OrphanEvents
	r.Anomalies += o.Anomalies
}

// Tracer assembles spans from the measurement hooks. It consumes a
// truth.Tracker (truth.Observer), satisfies node.SpanSink and
// arq.AttemptObserver structurally, and accepts adapt width-change
// notifications. Like every protocol component it is single-threaded
// within one trial.
type Tracer struct {
	tr *truth.Tracker

	spans  []*Span
	widths []WidthChange

	// Draws not yet on air: keyed by trailer (instrumented mode) or queued
	// per sender in transmit order (FIFO mode).
	queuedTruth map[truth.Key]*Span
	queuedFIFO  map[radio.NodeID][]*Span
	// fifoSeq numbers the synthetic identities FIFO mode hands the
	// tracker.
	fifoSeq uint32

	// bySenderKey and lastByKey are best-effort attribution indexes for
	// fate and receiver-side events without a usable trailer (latest span
	// wins).
	bySenderKey map[skey]*Span
	lastByKey   map[uint64]*Span
	// lastQueued and arqLast thread ARQ retry chains: the span TxOpen
	// just queued for a sender, and each stream's previous attempt.
	lastQueued map[radio.NodeID]*Span
	arqLast    map[arqKey]*Span

	rep Report
}

var _ truth.Observer = (*Tracer)(nil)

// New attaches a span tracer to a tracker. Each span holds its
// transaction's record for the whole run, so the tracer attaches as a
// keeper. On an uninstrumented wire format it resolves identities by
// per-sender FIFO order.
func New(tr *truth.Tracker) *Tracer {
	t := &Tracer{
		tr:          tr,
		queuedTruth: make(map[truth.Key]*Span),
		queuedFIFO:  make(map[radio.NodeID][]*Span),
		bySenderKey: make(map[skey]*Span),
		lastByKey:   make(map[uint64]*Span),
		lastQueued:  make(map[radio.NodeID]*Span),
		arqLast:     make(map[arqKey]*Span),
	}
	if !tr.Instrumented() {
		tr.SetResolver(t.resolveFIFO)
	}
	tr.AttachKeeper(t)
	return t
}

// ---- sender-side hooks (node.SpanSink) ----

// TxOpen records a selector draw: a transaction entered its sender's
// transmit queue. Called synchronously from the fragmenting send path,
// before any fragment airs and before any ARQ attempt bookkeeping.
func (t *Tracer) TxOpen(sender radio.NodeID, tx aff.Transaction, strategy string) {
	var tr *frame.Truth
	if tx.Truth != nil {
		// The fragmenter reuses the trailer for its next transaction.
		c := *tx.Truth
		tr = &c
	}
	s := &Span{
		Index:    len(t.spans),
		Truth:    tr,
		Sender:   sender,
		Key:      tx.Key,
		Width:    tx.IDBits,
		ID:       tx.ID,
		Strategy: strategy,
		Redraws:  tx.Redraws,
		ARQSeq:   -1,
		Retry:    -1,
		Parent:   -1,
		QueuedAt: t.tr.Now(),
		fragAt:   make(map[int]int),
	}
	t.spans = append(t.spans, s)
	t.rep.Spans++
	if t.tr.Instrumented() && tr != nil {
		t.queuedTruth[truth.Key{Node: tr.Node, Seq: tr.Seq}] = s
	} else {
		t.queuedFIFO[sender] = append(t.queuedFIFO[sender], s)
	}
	t.lastQueued[sender] = s
}

// RxDelivered records a receiver handing up a complete packet.
func (t *Tracer) RxDelivered(receiver radio.NodeID, p aff.Packet) {
	t.rep.PacketsDelivered++
	s := t.findForRx(p.Truth, p.ID)
	if s == nil {
		t.rep.OrphanEvents++
		return
	}
	s.Deliveries++
	s.Events = append(s.Events, Event{At: t.tr.Now(), Node: receiver, Kind: "delivered"})
}

// RxRejected records a never-misdeliver rejection: a reassembled packet
// failed its checksum, or conflicting introductions poisoned the key.
func (t *Tracer) RxRejected(receiver radio.NodeID, key uint64, checksum bool) {
	s := t.findForRx(nil, key)
	if s == nil {
		t.rep.OrphanEvents++
		return
	}
	kind := "rejected-conflict"
	if checksum {
		kind = "rejected-checksum"
		s.RejectedChecksum++
	} else {
		s.RejectedConflict++
	}
	s.Events = append(s.Events, Event{At: t.tr.Now(), Node: receiver, Kind: kind})
}

// RxExpired records a receiver abandoning partial reassembly state.
func (t *Tracer) RxExpired(receiver radio.NodeID, key uint64) {
	s := t.findForRx(nil, key)
	if s == nil {
		t.rep.OrphanEvents++
		return
	}
	s.Expired++
	s.Events = append(s.Events, Event{At: t.tr.Now(), Node: receiver, Kind: "expired"})
}

// RxEvicted records a receiver's MaxPartials cap evicting partial
// reassembly state — memory-pressure degradation, distinct from the idle
// timeout RxExpired records.
func (t *Tracer) RxEvicted(receiver radio.NodeID, key uint64) {
	s := t.findForRx(nil, key)
	if s == nil {
		t.rep.OrphanEvents++
		return
	}
	s.Evicted++
	s.Events = append(s.Events, Event{At: t.tr.Now(), Node: receiver, Kind: "evicted"})
}

// ARQAbandon marks a retry chain's final attempt: the ARQ endpoint
// exhausted (or, under loss-aware shedding, relinquished) its retry
// budget for this sequence (arq.AbandonObserver). lastKey guards against
// attributing the abandonment to an unrelated span when the stream's
// bookkeeping and the tracer's disagree.
func (t *Tracer) ARQAbandon(sender radio.NodeID, seq uint32, attempts int, hasKey bool, lastKey uint64) {
	s := t.arqLast[arqKey{sender, seq}]
	if s == nil || (hasKey && s.Key != lastKey) {
		t.rep.OrphanEvents++
		return
	}
	s.BudgetExhausted = true
}

// ARQAttempt annotates the span TxOpen just queued with its place in a
// retry chain (arq.AttemptObserver; fires synchronously after the
// transport accepted the attempt).
func (t *Tracer) ARQAttempt(sender radio.NodeID, seq uint32, attempt int, hasPrev bool, prevKey, newKey uint64) {
	s := t.lastQueued[sender]
	if s == nil || s.Key != newKey {
		t.rep.OrphanEvents++
		return
	}
	s.ARQSeq = int(seq)
	s.Retry = attempt
	ak := arqKey{sender, seq}
	if hasPrev {
		if prev := t.arqLast[ak]; prev != nil && prev.Key == prevKey {
			s.Parent = prev.Index
		}
	}
	t.arqLast[ak] = s
}

// NoteWidthChange records an adaptive-width controller move (wire it to
// adapt.Config.OnChange).
func (t *Tracer) NoteWidthChange(node radio.NodeID, oldBits, newBits int) {
	t.widths = append(t.widths, WidthChange{At: t.tr.Now(), Node: node, From: oldBits, To: newBits})
}

// ---- tracker feed (truth.Observer) ----

// resolveFIFO is the uninstrumented identity resolver: a sender's
// transactions never interleave, so its current transaction continues
// while the key matches (an intro after that transaction's intro means
// the selector redrew the same key for a new one), and anything else
// begins the sender's next transaction under a fresh synthetic key.
func (t *Tracer) resolveFIFO(f *truth.Frame) truth.Key {
	sender := f.Raw.From
	if cur := t.tr.Current(sender); cur != nil && cur.Key == f.Key && (!f.Intro || !cur.HaveLen) {
		return cur.Truth
	}
	t.fifoSeq++
	return truth.Key{Node: uint32(sender), Seq: t.fifoSeq}
}

// Opened binds a transaction that just went on air to its span: the
// queued draw it came from, or a synthesized span when no draw was
// recorded (span sink not wired on that node, or a crash raced the hook).
func (t *Tracer) Opened(tx *truth.Tx, f *truth.Frame) {
	var s *Span
	if t.tr.Instrumented() {
		if s = t.queuedTruth[tx.Truth]; s != nil {
			delete(t.queuedTruth, tx.Truth)
		}
	} else {
		// Pop the sender's queue up to the matching draw; skipped entries
		// died with a crashed transmit queue and stay never-aired.
		q := t.queuedFIFO[tx.Sender]
		for len(q) > 0 {
			head := q[0]
			q = q[1:]
			if head.Key == tx.Key {
				s = head
				break
			}
		}
		t.queuedFIFO[tx.Sender] = q
	}
	if s == nil {
		s = &Span{
			Index:    len(t.spans),
			Sender:   tx.Sender,
			Key:      tx.Key,
			Width:    f.Width,
			ID:       f.ID,
			ARQSeq:   -1,
			Retry:    -1,
			Parent:   -1,
			QueuedAt: -1,
			fragAt:   make(map[int]int),
		}
		if t.tr.Instrumented() {
			s.Truth = &frame.Truth{Node: tx.Truth.Node, Seq: tx.Truth.Seq}
		}
		t.spans = append(t.spans, s)
		t.rep.Spans++
	}
	s.tx = tx
	tx.Tag = s
	t.bySenderKey[skey{s.Sender, s.Key}] = s
	t.lastByKey[s.Key] = s
}

// Sent records one fragment on its span. Relayed copies of a fragment
// already recorded at its first airing add nothing: their fates still
// attribute to that record.
func (t *Tracer) Sent(f *truth.Frame, tx *truth.Tx, violation bool) {
	s := spanOf(tx)
	if violation {
		s.Anomalies++
		t.rep.Anomalies++
		return
	}
	if _, dup := s.fragAt[f.Offset]; dup {
		return
	}
	s.FragsSent++
	s.fragAt[f.Offset] = len(s.Frags)
	s.Frags = append(s.Frags, Frag{Intro: f.Intro, Offset: f.Offset, Len: len(f.Payload), At: t.tr.Now()})
}

// Fate attributes one receiver's copy of a frame to its span and records
// the channel verdict.
func (t *Tracer) Fate(_ radio.NodeID, f *truth.Frame, tx *truth.Tx, fate radio.Fate) {
	if f == nil {
		return
	}
	s := spanOf(tx)
	if s == nil {
		s = t.bySenderKey[skey{f.Raw.From, f.Key}]
	}
	if s == nil {
		t.rep.OrphanEvents++
		return
	}
	i, ok := s.fragAt[f.Offset]
	if !ok {
		// A fate for a fragment the send path never recorded (an
		// anomalous frame): drop it.
		return
	}
	bumpFate(&s.Frags[i], fate)
}

// bumpFate applies one channel verdict to a fragment — span-level
// delivery evidence comes from the receiver hooks, not from fates.
func bumpFate(fr *Frag, fate radio.Fate) {
	switch fate {
	case radio.FateDelivered:
		fr.Delivered++
	case radio.FateCollided:
		fr.Collided++
	case radio.FateRandomLoss:
		fr.RandomLoss++
	case radio.FateCorrupted:
		fr.Corrupted++
	case radio.FateNotHeard:
		fr.NotHeard++
	case radio.FateHalfDuplex:
		fr.HalfDuplex++
	}
}

// spanOf returns the span bound to a tracked transaction, or nil.
func spanOf(tx *truth.Tx) *Span {
	if tx == nil {
		return nil
	}
	s, _ := tx.Tag.(*Span)
	return s
}

// findForRx attributes a receiver-side event. Truth is exact when
// present; otherwise the latest span opened under the key is the best
// witness (exact except under an active identifier collision, which the
// collision mark already flags).
func (t *Tracer) findForRx(tr *frame.Truth, key uint64) *Span {
	if tr != nil {
		if s := spanOf(t.tr.Find(truth.Key{Node: tr.Node, Seq: tr.Seq})); s != nil {
			return s
		}
	}
	return t.lastByKey[key]
}

// ---- results ----

// Spans returns the recorded spans in creation order. The slice and the
// spans are live until the run ends; callers must not mutate them.
func (t *Tracer) Spans() []*Span { return t.spans }

// WidthChanges returns the recorded width-controller moves.
func (t *Tracer) WidthChanges() []WidthChange { return t.widths }

// Report returns the span tallies plus the tracker's lifecycle counts.
func (t *Tracer) Report() Report {
	r := t.rep
	c := t.tr.Counts()
	r.Opened = c.Opened
	r.Closed = c.Closed
	r.Stalled = c.Stalled
	r.Revived = c.Revived
	r.Abandoned = c.Abandoned
	r.FragmentsSent = c.FragmentsSent
	r.CollisionEvents = c.Collisions
	r.FreshnessViolations = c.Freshness
	r.Unattributed = c.Unattributed
	return r
}
