package oracle

import (
	"math"
	"testing"
	"time"

	"retri/internal/aff"
	"retri/internal/core"
	"retri/internal/frame"
	"retri/internal/metrics"
	"retri/internal/radio"
	"retri/internal/truth"
)

// testAFF is a small fixed-width instrumented wire format.
func testAFF() aff.Config {
	return aff.Config{
		Space:             core.MustSpace(8),
		Instrument:        true,
		ReassemblyTimeout: 250 * time.Millisecond,
	}
}

// newOracleOn attaches an oracle to a fresh tracker observing cfg.
func newOracleOn(t *testing.T, cfg aff.Config, oc Config, now *time.Duration) (*truth.Tracker, *Oracle) {
	t.Helper()
	tr, err := truth.New(truth.Config{AFF: cfg, Now: func() time.Duration { return *now }})
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(tr, oc)
	if err != nil {
		t.Fatal(err)
	}
	return tr, o
}

func newTestOracle(t *testing.T, now *time.Duration) (*truth.Tracker, *Oracle) {
	t.Helper()
	return newOracleOn(t, testAFF(), Config{}, now)
}

// sendTx airs a full transaction (intro + one data fragment) from the
// given node and returns the frames for reuse on the delivery side.
func sendTx(t *testing.T, tr *truth.Tracker, from radio.NodeID, id uint64, trailer frame.Truth, payload []byte) []radio.Frame {
	t.Helper()
	codec := frame.Codec{IDBits: 8, Instrument: true}
	ib, ibits, err := codec.AppendIntro(nil, frame.Intro{ID: id, TotalLen: len(payload), Checksum: 7, Truth: &trailer})
	if err != nil {
		t.Fatal(err)
	}
	db, dbits, err := codec.AppendData(nil, frame.Data{ID: id, Offset: 0, Payload: payload, Truth: &trailer})
	if err != nil {
		t.Fatal(err)
	}
	frames := []radio.Frame{
		{From: from, Payload: ib, Bits: ibits},
		{From: from, Payload: db, Bits: dbits},
	}
	for _, f := range frames {
		tr.FrameSent(f)
	}
	return frames
}

func TestOracleRequiresInstrument(t *testing.T) {
	cfg := testAFF()
	cfg.Instrument = false
	tr, err := truth.New(truth.Config{AFF: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(tr, Config{}); err == nil {
		t.Fatal("uninstrumented tracker accepted")
	}
}

func TestOracleTransactionLifecycle(t *testing.T) {
	now := time.Duration(0)
	tr, o := newTestOracle(t, &now)

	codec := frame.Codec{IDBits: 8, Instrument: true}
	truth := frame.Truth{Node: 1, Seq: 1}
	ib, ibits, _ := codec.AppendIntro(nil, frame.Intro{ID: 5, TotalLen: 4, Checksum: 7, Truth: &truth})
	tr.FrameSent(radio.Frame{From: 1, Payload: ib, Bits: ibits})
	if got := o.OpenCount(); got != 1 {
		t.Fatalf("open after intro = %d, want 1", got)
	}
	if got := o.VisibleT(2); got != 2 {
		t.Errorf("VisibleT(2) = %d, want 2 (own + one open)", got)
	}

	db, dbits, _ := codec.AppendData(nil, frame.Data{ID: 5, Offset: 0, Payload: []byte{1, 2, 3, 4}, Truth: &truth})
	tr.FrameSent(radio.Frame{From: 1, Payload: db, Bits: dbits})
	rep := o.Report()
	if o.OpenCount() != 0 || rep.TransactionsClosed != 1 {
		t.Errorf("final fragment did not close: open=%d closed=%d", o.OpenCount(), rep.TransactionsClosed)
	}
	if err := rep.Check(); err != nil {
		t.Errorf("clean run reported violations: %v", err)
	}

	// Delivery of the sent frames is conservation-clean.
	tr.FrameFate(2, radio.Frame{From: 1, Payload: ib, Bits: ibits}, radio.FateDelivered)
	tr.FrameFate(2, radio.Frame{From: 1, Payload: db, Bits: dbits}, radio.FateDelivered)
	if rep := o.Report(); rep.ConservationViolations != 0 || rep.FragmentsDelivered != 2 {
		t.Errorf("clean delivery audit: %+v", rep)
	}

	// The reassembled packet matches ground truth.
	o.VerifyDelivered(2, aff.Packet{ID: 5, Data: []byte{1, 2, 3, 4}, Truth: &truth})
	if rep := o.Report(); rep.Misdeliveries != 0 || rep.PacketsAudited != 1 {
		t.Errorf("clean packet audit: %+v", rep)
	}
}

func TestOracleDetectsMisdelivery(t *testing.T) {
	now := time.Duration(0)
	tr, o := newTestOracle(t, &now)
	truth := frame.Truth{Node: 1, Seq: 1}
	sendTx(t, tr, 1, 5, truth, []byte{1, 2, 3, 4})

	// Wrong bytes, wrong key, wrong length, unknown transaction.
	o.VerifyDelivered(2, aff.Packet{ID: 5, Data: []byte{9, 9, 9, 9}, Truth: &truth})
	o.VerifyDelivered(2, aff.Packet{ID: 6, Data: []byte{1, 2, 3, 4}, Truth: &truth})
	o.VerifyDelivered(2, aff.Packet{ID: 5, Data: []byte{1, 2}, Truth: &truth})
	o.VerifyDelivered(2, aff.Packet{ID: 5, Data: []byte{1, 2, 3, 4}, Truth: &frame.Truth{Node: 9, Seq: 9}})
	rep := o.Report()
	if rep.Misdeliveries != 4 {
		t.Errorf("misdeliveries = %d, want 4", rep.Misdeliveries)
	}
	if rep.Check() == nil {
		t.Error("Check passed with misdeliveries")
	}
}

func TestOracleDetectsConservationViolation(t *testing.T) {
	now := time.Duration(0)
	tr, o := newTestOracle(t, &now)
	truth := frame.Truth{Node: 1, Seq: 1}
	sendTx(t, tr, 1, 5, truth, []byte{1, 2, 3, 4})

	// A delivered data fragment whose bytes were never sent.
	codec := frame.Codec{IDBits: 8, Instrument: true}
	db, dbits, _ := codec.AppendData(nil, frame.Data{ID: 5, Offset: 0, Payload: []byte{9, 9}, Truth: &truth})
	tr.FrameFate(2, radio.Frame{From: 1, Payload: db, Bits: dbits}, radio.FateDelivered)
	if rep := o.Report(); rep.ConservationViolations != 1 {
		t.Errorf("conservation violations = %d, want 1", rep.ConservationViolations)
	}

	// A corrupted delivery is counted, not audited.
	tr.FrameFate(2, radio.Frame{From: 1, Payload: db, Bits: dbits}, radio.FateCorrupted)
	if rep := o.Report(); rep.ConservationViolations != 1 || rep.CorruptedDeliveries != 1 {
		t.Errorf("corrupted delivery audited: %+v", rep)
	}
}

func TestOracleDetectsCollisionAndFreshness(t *testing.T) {
	now := time.Duration(0)
	tr, o := newTestOracle(t, &now)
	codec := frame.Codec{IDBits: 8, Instrument: true}

	// Two senders open transactions under the same identifier: a true
	// collision, not a freshness violation.
	t1, t2 := frame.Truth{Node: 1, Seq: 1}, frame.Truth{Node: 2, Seq: 1}
	ib1, b1, _ := codec.AppendIntro(nil, frame.Intro{ID: 5, TotalLen: 2, Checksum: 7, Truth: &t1})
	ib2, b2, _ := codec.AppendIntro(nil, frame.Intro{ID: 5, TotalLen: 2, Checksum: 8, Truth: &t2})
	tr.FrameSent(radio.Frame{From: 1, Payload: ib1, Bits: b1})
	tr.FrameSent(radio.Frame{From: 2, Payload: ib2, Bits: b2})
	rep := o.Report()
	if rep.CollisionEvents != 1 || rep.FreshnessViolations != 0 {
		t.Errorf("collisions=%d freshness=%d, want 1/0", rep.CollisionEvents, rep.FreshnessViolations)
	}

	// A transaction switching identifier mid-flight is a freshness
	// violation.
	db, bd, _ := codec.AppendData(nil, frame.Data{ID: 6, Offset: 0, Payload: []byte{1}, Truth: &t1})
	tr.FrameSent(radio.Frame{From: 1, Payload: db, Bits: bd})
	if rep := o.Report(); rep.FreshnessViolations != 1 {
		t.Errorf("freshness violations = %d, want 1 after mid-flight change", rep.FreshnessViolations)
	}

	// The same sender opening a new transaction retires its previous one
	// (the FIFO queue moved on — a crash-restart redrawing the same key is
	// legitimate), so this counts as a collision with node 2's still-open
	// transaction, not a freshness violation.
	t3 := frame.Truth{Node: 1, Seq: 2}
	ib3, b3, _ := codec.AppendIntro(nil, frame.Intro{ID: 5, TotalLen: 2, Checksum: 9, Truth: &t3})
	tr.FrameSent(radio.Frame{From: 1, Payload: ib3, Bits: b3})
	rep = o.Report()
	if rep.FreshnessViolations != 1 || rep.CollisionEvents != 2 {
		t.Errorf("freshness=%d collisions=%d, want 1/2 after crash-redraw", rep.FreshnessViolations, rep.CollisionEvents)
	}
	if rep.TransactionsAbandoned != 1 {
		t.Errorf("abandoned = %d, want 1", rep.TransactionsAbandoned)
	}
}

func TestOracleStallPruning(t *testing.T) {
	now := time.Duration(0)
	tr, o := newTestOracle(t, &now)
	codec := frame.Codec{IDBits: 8, Instrument: true}
	truth := frame.Truth{Node: 1, Seq: 1}
	ib, bits, _ := codec.AppendIntro(nil, frame.Intro{ID: 5, TotalLen: 4, Checksum: 7, Truth: &truth})
	tr.FrameSent(radio.Frame{From: 1, Payload: ib, Bits: bits})

	// The sender goes quiet: no more fragments. Past the stall timeout
	// the transaction no longer counts toward anyone's density.
	now = 300 * time.Millisecond
	if got := o.VisibleT(2); got != 1 {
		t.Errorf("VisibleT after stall = %d, want floor 1", got)
	}

	// A late fragment (a long CSMA contention gap, not a death) revives
	// the transaction: density recovers and the transaction can still
	// close with a clean conservation audit.
	db, dbits, _ := codec.AppendData(nil, frame.Data{ID: 5, Offset: 0, Payload: []byte{1, 2}, Truth: &truth})
	tr.FrameSent(radio.Frame{From: 1, Payload: db, Bits: dbits})
	if got := o.VisibleT(2); got != 2 {
		t.Errorf("VisibleT after revival = %d, want 2", got)
	}
	db2, d2bits, _ := codec.AppendData(nil, frame.Data{ID: 5, Offset: 2, Payload: []byte{3, 4}, Truth: &truth})
	tr.FrameSent(radio.Frame{From: 1, Payload: db2, Bits: d2bits})
	if err := o.Report().Check(); err != nil {
		t.Errorf("revival flagged as violation: %v", err)
	}
}

func TestOracleVisibleTRespectsTopology(t *testing.T) {
	now := time.Duration(0)
	disk := radio.NewUnitDisk(10)
	disk.Place(1, radio.Point{X: 0, Y: 0})
	disk.Place(2, radio.Point{X: 5, Y: 0})   // in range of 1
	disk.Place(3, radio.Point{X: 100, Y: 0}) // out of range
	tr, o := newOracleOn(t, testAFF(), Config{Topo: disk}, &now)
	sendTx := func(from radio.NodeID, seq uint32, id uint64) {
		codec := frame.Codec{IDBits: 8, Instrument: true}
		truth := frame.Truth{Node: uint32(from), Seq: seq}
		ib, bits, _ := codec.AppendIntro(nil, frame.Intro{ID: id, TotalLen: 4, Checksum: 7, Truth: &truth})
		tr.FrameSent(radio.Frame{From: from, Payload: ib, Bits: bits})
	}
	sendTx(1, 1, 5)
	sendTx(3, 1, 6)
	if got := o.VisibleT(2); got != 2 {
		t.Errorf("VisibleT(2) = %d, want 2 (own + node 1; node 3 out of range)", got)
	}
	if got := o.VisibleT(1); got != 1 {
		t.Errorf("VisibleT(1) = %d, want 1 (own transaction only)", got)
	}
	if got := o.VisibleT(3); got != 1 {
		t.Errorf("VisibleT(3) = %d, want 1 (isolated)", got)
	}
	sendTx(2, 1, 7)
	if got := o.VisibleT(1); got != 2 {
		t.Errorf("VisibleT(1) = %d, want 2", got)
	}
}

func TestOracleAdaptiveWidthKeys(t *testing.T) {
	now := time.Duration(0)
	cfg := testAFF()
	cfg.Space = core.MustSpace(16)
	cfg.AdaptiveWidth = true
	tr, o := newOracleOn(t, cfg, Config{}, &now)
	// A 4-bit id 3 and a 9-bit id 3 are distinct transactions, not a
	// collision.
	for i, w := range []int{4, 9} {
		codec := frame.Codec{IDBits: w, Instrument: true, InBandWidth: true}
		truth := frame.Truth{Node: uint32(i + 1), Seq: 1}
		ib, bits, err := codec.AppendIntro(nil, frame.Intro{ID: 3, TotalLen: 4, Checksum: 7, Truth: &truth})
		if err != nil {
			t.Fatal(err)
		}
		tr.FrameSent(radio.Frame{From: radio.NodeID(i + 1), Payload: ib, Bits: bits})
	}
	rep := o.Report()
	if rep.CollisionEvents != 0 {
		t.Errorf("distinct widths counted as collision: %+v", rep)
	}
	if o.OpenCount() != 2 {
		t.Errorf("open = %d, want 2", o.OpenCount())
	}
}

func TestOracleProbe(t *testing.T) {
	now := time.Duration(0)
	tr, o := newTestOracle(t, &now)
	sendTx(t, tr, 1, 5, frame.Truth{Node: 1, Seq: 1}, []byte{1}) // closes immediately

	// No open transactions: truth is the floor of 1.
	opt := OptimalWidth(384, 1, 2, 16)
	o.Probe(2, 3.5, 10, 384, 2, 16)
	o.Probe(2, 1.0, opt, 384, 2, 16)
	rep := o.Report()
	if got := rep.MeanEstError(); math.Abs(got-1.25) > 1e-9 {
		t.Errorf("mean est error = %v, want 1.25", got)
	}
	if got := rep.EstErrorPercentile(50); got != 0 {
		t.Errorf("p50 est error = %v, want 0", got)
	}
	if got := rep.EstErrorPercentile(95); got != 2.5 {
		t.Errorf("p95 est error = %v, want 2.5", got)
	}
	if got := rep.MeanWidthGap(); got != float64(10-opt)/2 {
		t.Errorf("mean width gap = %v, want %v", got, float64(10-opt)/2)
	}
	if got := rep.MeanAbsWidthGap(); got != float64(10-opt)/2 {
		t.Errorf("abs width gap = %v", got)
	}
	if got := rep.WidthGapPercentile(95); got != float64(10-opt) {
		t.Errorf("p95 width gap = %v", got)
	}

	// The probe scores against a smoothed truth: a transaction opening
	// moves the instantaneous count to 2, but the EMA only goes halfway.
	codec := frame.Codec{IDBits: 8, Instrument: true}
	truth := frame.Truth{Node: 3, Seq: 1}
	ib, bits, _ := codec.AppendIntro(nil, frame.Intro{ID: 9, TotalLen: 4, Checksum: 7, Truth: &truth})
	tr.FrameSent(radio.Frame{From: 3, Payload: ib, Bits: bits})
	o.Probe(2, 1.5, opt, 384, 2, 16)
	rep = o.Report()
	if got := rep.EstErrors[len(rep.EstErrors)-1]; math.Abs(got) > 1e-9 {
		t.Errorf("smoothed est error = %v, want 0 (EMA of 1 and 2)", got)
	}
}

func TestReportEmptyPercentiles(t *testing.T) {
	var r Report
	if !math.IsNaN(r.EstErrorPercentile(50)) || !math.IsNaN(r.MeanWidthGap()) || !math.IsNaN(r.MeanAbsWidthGap()) {
		t.Error("empty report digests should be NaN")
	}
	if r.Check() != nil {
		t.Error("empty report should be conformant")
	}
}

func TestReportMergeAndSnapshot(t *testing.T) {
	a := Report{TransactionsOpened: 2, FragmentsSent: 5, Misdeliveries: 1, EstErrors: []float64{1}, WidthGaps: []float64{2}}
	b := Report{TransactionsOpened: 3, FragmentsSent: 7, CollisionEvents: 4, EstErrors: []float64{-1}, WidthGaps: []float64{0}}
	a.Merge(b)
	if a.TransactionsOpened != 5 || a.FragmentsSent != 12 || a.CollisionEvents != 4 {
		t.Errorf("merge counters: %+v", a)
	}
	if len(a.EstErrors) != 2 || len(a.WidthGaps) != 2 {
		t.Errorf("merge samples: %+v", a)
	}

	reg := metrics.NewRegistry()
	a.SnapshotInto(reg, "cell=x")
	if got := reg.Counter("oracle_tx_opened_total", "cell=x").Value(); got != 5 {
		t.Errorf("oracle_tx_opened_total = %v, want 5", got)
	}
	if got := reg.Counter("oracle_misdeliveries_total", "cell=x").Value(); got != 1 {
		t.Errorf("oracle_misdeliveries_total = %v, want 1", got)
	}
	if got := reg.Gauge("oracle_width_gap_mean_abs", "cell=x").Value(); got != 1 {
		t.Errorf("oracle_width_gap_mean_abs = %v, want 1", got)
	}
}

func TestOracleUnauditedFrames(t *testing.T) {
	now := time.Duration(0)
	tr, o := newTestOracle(t, &now)
	// Undecodable garbage at send and delivery.
	tr.FrameSent(radio.Frame{From: 1, Payload: nil, Bits: 0})
	tr.FrameFate(2, radio.Frame{From: 1, Payload: nil, Bits: 0}, radio.FateDelivered)
	// A packet without a truth trailer cannot be audited.
	o.VerifyDelivered(2, aff.Packet{ID: 5, Data: []byte{1}})
	rep := o.Report()
	if rep.Unaudited != 3 {
		t.Errorf("unaudited = %d, want 3", rep.Unaudited)
	}
	if rep.Misdeliveries != 0 || rep.ConservationViolations != 0 {
		t.Errorf("garbage counted as violation: %+v", rep)
	}
}
