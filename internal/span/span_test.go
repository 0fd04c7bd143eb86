package span

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"retri/internal/aff"
	"retri/internal/core"
	"retri/internal/frame"
	"retri/internal/radio"
	"retri/internal/truth"
)

// harness bundles a tracer and the tracker feeding it with a settable
// clock and the codec that produces its frames.
type harness struct {
	trk   *truth.Tracker
	tr    *Tracer
	codec frame.Codec
	now   time.Duration
}

func newHarness(t *testing.T, instrument bool) *harness {
	t.Helper()
	h := &harness{}
	trk, err := truth.New(truth.Config{
		AFF: aff.Config{
			Space:             core.MustSpace(8),
			MTU:               27,
			Instrument:        instrument,
			ReassemblyTimeout: 100 * time.Millisecond,
		},
		Now: func() time.Duration { return h.now },
	})
	if err != nil {
		t.Fatalf("truth.New: %v", err)
	}
	h.trk = trk
	h.tr = New(trk)
	h.codec = frame.Codec{IDBits: 8, Instrument: instrument}
	return h
}

func (h *harness) intro(t *testing.T, from radio.NodeID, id uint64, totalLen int, truth *frame.Truth) radio.Frame {
	t.Helper()
	p, bits, err := h.codec.EncodeIntro(frame.Intro{ID: id, TotalLen: totalLen, Checksum: 0xBEEF, Truth: truth})
	if err != nil {
		t.Fatalf("EncodeIntro: %v", err)
	}
	return radio.Frame{From: from, Payload: p, Bits: bits}
}

func (h *harness) data(t *testing.T, from radio.NodeID, id uint64, offset int, payload []byte, truth *frame.Truth) radio.Frame {
	t.Helper()
	p, bits, err := h.codec.EncodeData(frame.Data{ID: id, Offset: offset, Payload: payload, Truth: truth})
	if err != nil {
		t.Fatalf("EncodeData: %v", err)
	}
	return radio.Frame{From: from, Payload: p, Bits: bits}
}

func (h *harness) open(sender radio.NodeID, id uint64, truth *frame.Truth, strategy string, redraws int) {
	h.tr.TxOpen(sender, aff.Transaction{ID: id, Key: id, IDBits: 8, Truth: truth, Redraws: redraws}, strategy)
}

func TestLifecycleDelivered(t *testing.T) {
	h := newHarness(t, true)
	truth := &frame.Truth{Node: 1, Seq: 0}
	h.open(1, 5, truth, "uniform", 2)
	if got := h.tr.Report().Spans; got != 1 {
		t.Fatalf("Spans = %d, want 1", got)
	}

	fi := h.intro(t, 1, 5, 4, truth)
	h.trk.FrameSent(fi)
	h.trk.FrameFate(2, fi, radio.FateDelivered)
	h.now = 2 * time.Millisecond
	fd := h.data(t, 1, 5, 0, []byte{1, 2, 3, 4}, truth)
	h.trk.FrameSent(fd)
	h.trk.FrameFate(2, fd, radio.FateDelivered)
	h.tr.RxDelivered(2, aff.Packet{ID: 5, Data: []byte{1, 2, 3, 4}, Truth: truth})

	rep := h.tr.Report()
	if rep.Opened != 1 || rep.Closed != 1 || rep.FragmentsSent != 2 || rep.PacketsDelivered != 1 {
		t.Fatalf("report = %+v", rep)
	}
	s := h.tr.Spans()[0]
	if s.State() != StateClosed || s.Outcome() != "delivered" {
		t.Fatalf("state %v outcome %q", s.State(), s.Outcome())
	}
	if s.Strategy != "uniform" || s.Redraws != 2 || s.Width != 8 || s.tx.TotalLen != 4 {
		t.Fatalf("span metadata = %+v", s)
	}
	if len(s.Frags) != 2 || s.Frags[0].Delivered != 1 || s.Frags[1].Delivered != 1 {
		t.Fatalf("frags = %+v", s.Frags)
	}
	if tx := s.tx; tx.OpenedAt != 0 || tx.ClosedAt != 2*time.Millisecond {
		t.Fatalf("times open %v close %v", tx.OpenedAt, tx.ClosedAt)
	}
	if len(s.Events) != 1 || s.Events[0].Kind != "delivered" || s.Events[0].Node != 2 {
		t.Fatalf("events = %+v", s.Events)
	}
}

func TestCollisionMarksEveryParty(t *testing.T) {
	h := newHarness(t, true)
	t1 := &frame.Truth{Node: 1, Seq: 0}
	t2 := &frame.Truth{Node: 2, Seq: 0}
	h.open(1, 7, t1, "uniform", 0)
	h.open(2, 7, t2, "uniform", 0)
	h.trk.FrameSent(h.intro(t, 1, 7, 8, t1))
	h.trk.FrameSent(h.intro(t, 2, 7, 8, t2))

	rep := h.tr.Report()
	if rep.CollisionEvents != 1 {
		t.Fatalf("CollisionEvents = %d, want 1", rep.CollisionEvents)
	}
	for i, s := range h.tr.Spans() {
		if !s.tx.Collided {
			t.Fatalf("span %d not marked collided", i)
		}
		if s.Outcome() != "collided" {
			t.Fatalf("span %d outcome %q", i, s.Outcome())
		}
	}
}

func TestStallReviveAbandon(t *testing.T) {
	h := newHarness(t, true)
	tA := &frame.Truth{Node: 1, Seq: 0}
	tB := &frame.Truth{Node: 1, Seq: 1}
	h.open(1, 3, tA, "uniform", 0)
	h.trk.FrameSent(h.intro(t, 1, 3, 8, tA))
	h.trk.FrameSent(h.data(t, 1, 3, 0, []byte{1, 2, 3, 4}, tA))

	// Idle past the stall timeout; an unrelated frame triggers the prune.
	h.now = 150 * time.Millisecond
	other := &frame.Truth{Node: 9, Seq: 0}
	h.open(9, 200, other, "uniform", 0)
	h.trk.FrameSent(h.intro(t, 9, 200, 1, other))
	sA := h.tr.Spans()[0]
	if !sA.Stalled() || sA.Outcome() != "stalled" {
		t.Fatalf("span A stalled=%v outcome=%q", sA.Stalled(), sA.Outcome())
	}

	// A late fragment revives the stalled transaction.
	h.trk.FrameSent(h.data(t, 1, 3, 4, []byte{5, 6}, tA))
	if sA.Stalled() || sA.Outcome() != "in-flight" {
		t.Fatalf("span A after revive: stalled=%v outcome=%q", sA.Stalled(), sA.Outcome())
	}

	// A new transaction from the same sender abandons the open one, and
	// the ledger keeps its revive.
	h.open(1, 4, tB, "uniform", 0)
	h.trk.FrameSent(h.intro(t, 1, 4, 2, tB))
	l := NewLedger()
	l.AddTrial("trial-0", h.tr)
	if r := l.Records()[0]; r.Revives != 1 || r.State != "abandoned" || r.ClosedNS != int64(150*time.Millisecond) {
		t.Fatalf("span A record = %+v", r)
	}
	if sA.State() != StateAbandoned || sA.Outcome() != "abandoned" {
		t.Fatalf("span A state %v outcome %q", sA.State(), sA.Outcome())
	}
}

func TestFreshnessViolationCounted(t *testing.T) {
	h := newHarness(t, true)
	tr := &frame.Truth{Node: 1, Seq: 0}
	h.open(1, 3, tr, "uniform", 0)
	h.trk.FrameSent(h.intro(t, 1, 3, 8, tr))
	// Same transaction, different identifier: a mid-flight change.
	h.trk.FrameSent(h.data(t, 1, 9, 0, []byte{1}, tr))
	if rep := h.tr.Report(); rep.FreshnessViolations != 1 {
		t.Fatalf("FreshnessViolations = %d, want 1", rep.FreshnessViolations)
	}
}

func TestTruthlessFIFOAttribution(t *testing.T) {
	h := newHarness(t, false)
	h.open(1, 5, nil, "uniform", 0)
	h.open(1, 9, nil, "uniform", 0)

	// Sender's first draw never airs (queue died); the second does. FIFO
	// matching must skip the dead draw and attribute to the second span.
	h.trk.FrameSent(h.intro(t, 1, 9, 2, nil))
	h.trk.FrameSent(h.data(t, 1, 9, 0, []byte{1, 2}, nil))

	spans := h.tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	if spans[0].Outcome() != "never-aired" {
		t.Fatalf("skipped span outcome %q", spans[0].Outcome())
	}
	if spans[1].State() != StateClosed || spans[1].FragsSent != 2 {
		t.Fatalf("aired span state %v frags %d", spans[1].State(), spans[1].FragsSent)
	}
	rep := h.tr.Report()
	if rep.Opened != 1 || rep.Closed != 1 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestTruthlessSameKeyRedrawSplitsOnIntro(t *testing.T) {
	h := newHarness(t, false)
	h.open(1, 5, nil, "uniform", 0)
	h.open(1, 5, nil, "uniform", 0)
	h.trk.FrameSent(h.intro(t, 1, 5, 8, nil)) // tx 1 opens, never finishes
	// A second intro under the same key must begin transaction 2, not
	// continue transaction 1.
	h.trk.FrameSent(h.intro(t, 1, 5, 4, nil))
	spans := h.tr.Spans()
	if spans[0].State() != StateAbandoned {
		t.Fatalf("first span state %v, want abandoned", spans[0].State())
	}
	if spans[1].State() != StateOpen || spans[1].tx.TotalLen != 4 {
		t.Fatalf("second span state %v totalLen %d", spans[1].State(), spans[1].tx.TotalLen)
	}
}

func TestARQRetryChain(t *testing.T) {
	h := newHarness(t, true)
	t0 := &frame.Truth{Node: 1, Seq: 0}
	t1 := &frame.Truth{Node: 1, Seq: 1}
	h.open(1, 5, t0, "uniform", 0)
	h.tr.ARQAttempt(1, 42, 0, false, 0, 5)
	h.open(1, 9, t1, "uniform", 1)
	h.tr.ARQAttempt(1, 42, 1, true, 5, 9)

	spans := h.tr.Spans()
	if spans[0].ARQSeq != 42 || spans[0].Retry != 0 || spans[0].Parent != -1 {
		t.Fatalf("attempt 0 = %+v", spans[0])
	}
	if spans[1].ARQSeq != 42 || spans[1].Retry != 1 || spans[1].Parent != 0 {
		t.Fatalf("attempt 1 = %+v", spans[1])
	}
}

func TestRejectionAndExpiryEvents(t *testing.T) {
	h := newHarness(t, true)
	tr := &frame.Truth{Node: 1, Seq: 0}
	h.open(1, 5, tr, "uniform", 0)
	h.trk.FrameSent(h.intro(t, 1, 5, 2, tr))
	h.tr.RxRejected(3, 5, false)
	h.tr.RxRejected(4, 5, true)
	h.tr.RxExpired(6, 5)
	s := h.tr.Spans()[0]
	if s.RejectedConflict != 1 || s.RejectedChecksum != 1 || s.Expired != 1 {
		t.Fatalf("span rx counters = %+v", s)
	}
	if s.Outcome() != "rejected" {
		t.Fatalf("outcome %q, want rejected", s.Outcome())
	}
	if h.tr.Report().OrphanEvents != 0 {
		t.Fatalf("orphans = %d", h.tr.Report().OrphanEvents)
	}
}

// TestEvictionOutcome pins the memory-pressure degradation path: a
// MaxPartials cap eviction is recorded distinctly from idle expiry, names
// the span's root cause, and still loses to later delivery evidence from
// another receiver.
func TestEvictionOutcome(t *testing.T) {
	h := newHarness(t, true)
	tr := &frame.Truth{Node: 1, Seq: 0}
	h.open(1, 5, tr, "uniform", 0)
	h.trk.FrameSent(h.intro(t, 1, 5, 2, tr))
	h.tr.RxEvicted(2, 5)
	s := h.tr.Spans()[0]
	if s.Evicted != 1 || s.Expired != 0 {
		t.Fatalf("rx counters = %+v, want one eviction and no expiries", s)
	}
	if s.Outcome() != "reassembly-evicted" {
		t.Fatalf("outcome %q, want reassembly-evicted", s.Outcome())
	}
	if last := s.Events[len(s.Events)-1]; last.Kind != "evicted" || last.Node != 2 {
		t.Fatalf("last event = %+v, want evicted@2", last)
	}
	// A surviving receiver completing the packet outranks the eviction.
	h.trk.FrameSent(h.data(t, 1, 5, 0, []byte{1, 2}, tr))
	h.tr.RxDelivered(3, aff.Packet{ID: 5, Data: []byte{1, 2}, Truth: tr})
	if s.Outcome() != "delivered" {
		t.Fatalf("outcome %q after delivery, want delivered", s.Outcome())
	}
	if h.tr.Report().OrphanEvents != 0 {
		t.Fatalf("orphans = %d", h.tr.Report().OrphanEvents)
	}
}

// TestBudgetExhaustedOutcome pins the sender-side degradation path: the
// ARQ endpoint abandoning a chain marks its final attempt so -failed can
// bucket it as retry-budget-exhausted.
func TestBudgetExhaustedOutcome(t *testing.T) {
	h := newHarness(t, true)
	tr := &frame.Truth{Node: 1, Seq: 0}
	h.open(1, 5, tr, "uniform", 0)
	h.tr.ARQAttempt(1, 42, 0, false, 0, 5)
	h.trk.FrameSent(h.intro(t, 1, 5, 2, tr))
	h.tr.ARQAbandon(1, 42, 1, true, 5)
	s := h.tr.Spans()[0]
	if !s.BudgetExhausted {
		t.Fatal("abandonment did not mark the final attempt")
	}
	if s.Outcome() != "retry-budget-exhausted" {
		t.Fatalf("outcome %q, want retry-budget-exhausted", s.Outcome())
	}
	// A stale key must not attribute the abandonment to the wrong span.
	h2 := newHarness(t, true)
	h2.open(1, 5, tr, "uniform", 0)
	h2.tr.ARQAttempt(1, 42, 0, false, 0, 5)
	h2.tr.ARQAbandon(1, 42, 1, true, 9)
	if h2.tr.Spans()[0].BudgetExhausted {
		t.Fatal("abandonment with mismatched key was attributed anyway")
	}
	if h2.tr.Report().OrphanEvents != 1 {
		t.Fatalf("orphans = %d, want 1", h2.tr.Report().OrphanEvents)
	}
}

// TestLedgerCarriesDegradationFields keeps the on-disk contract for the
// two degradation outcomes retri-trace -failed buckets on.
func TestLedgerCarriesDegradationFields(t *testing.T) {
	h := newHarness(t, true)
	t0 := &frame.Truth{Node: 1, Seq: 0}
	t1 := &frame.Truth{Node: 1, Seq: 1}
	h.open(1, 5, t0, "uniform", 0)
	h.trk.FrameSent(h.intro(t, 1, 5, 2, t0))
	h.tr.RxEvicted(2, 5)
	h.open(1, 9, t1, "uniform", 0)
	h.tr.ARQAttempt(1, 7, 0, false, 0, 9)
	h.trk.FrameSent(h.intro(t, 1, 9, 2, t1))
	h.tr.ARQAbandon(1, 7, 1, true, 9)

	l := NewLedger()
	l.AddTrial("trial-0", h.tr)
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	recs, _, err := ReadJSONL(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	if recs[0].Evicted != 1 || recs[0].Outcome != "reassembly-evicted" {
		t.Fatalf("evicted record = %+v", recs[0])
	}
	if !recs[1].BudgetExhausted || recs[1].Outcome != "retry-budget-exhausted" {
		t.Fatalf("exhausted record = %+v", recs[1])
	}
}

func TestWidthChangeRecorded(t *testing.T) {
	h := newHarness(t, true)
	h.now = 7 * time.Millisecond
	h.tr.NoteWidthChange(4, 10, 9)
	ws := h.tr.WidthChanges()
	if len(ws) != 1 || ws[0] != (WidthChange{At: 7 * time.Millisecond, Node: 4, From: 10, To: 9}) {
		t.Fatalf("widths = %+v", ws)
	}
}

func TestLedgerJSONLRoundTrip(t *testing.T) {
	h := newHarness(t, true)
	tr := &frame.Truth{Node: 1, Seq: 0}
	h.open(1, 5, tr, "uniform", 1)
	h.trk.FrameSent(h.intro(t, 1, 5, 2, tr))
	h.trk.FrameSent(h.data(t, 1, 5, 0, []byte{1, 2}, tr))
	h.tr.NoteWidthChange(1, 8, 7)

	l := NewLedger()
	l.AddTrial("trial-0", h.tr)
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	recs, widths, err := ReadJSONL(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if len(recs) != 1 || len(widths) != 1 {
		t.Fatalf("rows = %d spans, %d widths", len(recs), len(widths))
	}
	r := recs[0]
	if r.Trial != "trial-0" || r.Key != 5 || r.Outcome != "lost" || r.State != "closed" {
		t.Fatalf("record = %+v", r)
	}
	if !r.HasTruth || r.Truth().Node != 1 {
		t.Fatalf("truth = %+v", r.Truth())
	}
	if len(r.Frags) != 2 {
		t.Fatalf("frags = %+v", r.Frags)
	}
	if widths[0].From != 8 || widths[0].To != 7 {
		t.Fatalf("width row = %+v", widths[0])
	}
	// Round-trip again: the serialized form is a fixed point.
	var buf2 bytes.Buffer
	enc := json.NewEncoder(&buf2)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range widths {
		if err := enc.Encode(w); err != nil {
			t.Fatal(err)
		}
	}
	if buf2.String() != buf.String() {
		t.Fatalf("round trip diverged:\n%s\nvs\n%s", buf.String(), buf2.String())
	}
}

func TestReadJSONLRejectsUnknownType(t *testing.T) {
	_, _, err := ReadJSONL(strings.NewReader(`{"type":"mystery"}` + "\n"))
	if err == nil {
		t.Fatal("want error for unknown row type")
	}
}

func TestChromeExportIsValidTraceJSON(t *testing.T) {
	recs := []Record{
		{Type: "span", Trial: "a", Span: 0, Sender: 1, Key: 5, OpenedNS: 0, ClosedNS: 1e6, Outcome: "delivered", Retry: -1, ARQSeq: -1, Parent: -1},
		{Type: "span", Trial: "a", Span: 1, Sender: 1, Key: 9, OpenedNS: 2e6, ClosedNS: 3e6, Outcome: "delivered", Retry: 1, ARQSeq: 7, Parent: 0},
		{Type: "span", Trial: "a", Span: 2, Sender: 2, Key: 3, OpenedNS: -1, ClosedNS: -1, Outcome: "never-aired", Retry: -1, ARQSeq: -1, Parent: -1},
	}
	widths := []WidthRecord{{Type: "width", Trial: "a", AtNS: 5e5, Node: 1, From: 8, To: 7}}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, recs, widths); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	// 2 slices (never-aired skipped) + 2 flow events + 1 instant.
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("events = %d, want 5\n%s", len(doc.TraceEvents), buf.String())
	}
}

func TestSeriesBuckets(t *testing.T) {
	sec := int64(time.Second)
	recs := []Record{
		// Open the whole first second, collides.
		{Span: 0, Width: 8, Collided: true, OpenedNS: 0, ClosedNS: sec},
		// Opens at 0.5s, closes at 1.5s: half coverage in each bucket.
		{Span: 1, Width: 6, Deliveries: 1, OpenedNS: sec / 2, ClosedNS: sec + sec/2},
		// Never aired: invisible.
		{Span: 2, Width: 8, OpenedNS: -1, ClosedNS: -1},
	}
	pts := Series(recs, time.Second)
	if len(pts) != 2 {
		t.Fatalf("points = %d, want 2", len(pts))
	}
	p0, p1 := pts[0], pts[1]
	if p0.Opened != 2 || p0.Collisions != 1 || p0.Delivered != 1 {
		t.Fatalf("p0 = %+v", p0)
	}
	if p0.WidthMean != 7 || p0.CollisionRate != 0.5 {
		t.Fatalf("p0 means = %+v", p0)
	}
	if p0.ActiveMean != 1.5 {
		t.Fatalf("p0 active = %v, want 1.5", p0.ActiveMean)
	}
	if p1.Opened != 0 || p1.Closed != 2 || p1.ActiveMean != 0.5 {
		t.Fatalf("p1 = %+v", p1)
	}

	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, pts); err != nil {
		t.Fatalf("WriteSeriesCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "start_s,") {
		t.Fatalf("csv:\n%s", buf.String())
	}
}
