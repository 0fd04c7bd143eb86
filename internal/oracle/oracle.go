// Package oracle is an omniscient conformance harness for the AFF stack.
//
// It consumes the ground-truth transaction tracker (internal/truth),
// which watches the medium from the simulator's privileged viewpoint —
// every frame put on air, with payload bytes and the ground-truth sender,
// information no protocol entity may read — and keys each fragment to its
// transaction by the instrumentation Truth trailer (the Section 5.1
// methodology). The tracker owns the lifecycle: which transactions are
// open, dormant, closed or abandoned, and which opened on a reassembly key
// another live transaction already carried (a true identifier collision).
//
// Against that ground truth the oracle audits the stack's safety
// properties: fragment conservation (every delivered fragment was sent,
// byte for byte), never-misdeliver (every packet the reassembler under
// test hands up matches the true payload of its transaction), and
// identifier freshness (a transaction keeps one identifier for its whole
// lifetime; a mid-flight change is a violation). It also scores the
// estimators and width controllers under test: estimator-minus-truth
// error samples and achieved-minus-optimal width samples, where "optimal"
// is the omniscient Equation 4 width at the true per-node density.
//
// The oracle is strictly passive. It draws no randomness, schedules no
// events and never mutates a payload, so attaching it cannot perturb the
// simulation: runs with and without the oracle are byte-identical.
//
// It understands the plain AFF wire format only (fixed- or in-band-width)
// and requires an instrumented tracker; frames it cannot attribute are
// counted in Report.Unaudited rather than guessed at.
package oracle

import (
	"errors"

	"retri/internal/aff"
	"retri/internal/radio"
	"retri/internal/truth"
)

// Config parameterizes an Oracle's density audit.
type Config struct {
	// Topo is the topology VisibleT consults for connectivity. May be nil,
	// in which case every node sees every transaction (full mesh).
	Topo radio.Topology
	// Visible, when set, overrides Topo for the density audit: whether a
	// transaction originated by sender is audible at v. Under multi-hop
	// relaying that is hop-limited reachability, not one-hop
	// connectivity. Nil falls back to Topo.
	Visible func(sender, v radio.NodeID) bool
}

// Oracle consumes a truth.Tracker and runs the conformance audits.
type Oracle struct {
	tr      *truth.Tracker
	topo    radio.Topology
	visible func(sender, v radio.NodeID) bool
	// smoothT is the per-node probe-averaged true density. Equation 4's T
	// is an *average* concurrency, not the instantaneous open-transaction
	// count (which flickers between consecutive transactions), so the
	// scoring probes fold their instantaneous reads into an EMA.
	smoothT map[radio.NodeID]float64

	// rep holds the audit tallies; lifecycle counts come from the tracker.
	rep Report
}

// smoothAlpha is the probe-EMA weight: with ~1s probe spacing, the
// smoothed truth tracks genuine density shifts within a few seconds while
// averaging out sub-transaction flicker.
const smoothAlpha = 0.5

var _ truth.Observer = (*Oracle)(nil)

// New attaches an oracle to a tracker. The tracker must observe an
// instrumented wire format: the Truth trailer is how fragments are
// attributed to transactions.
func New(tr *truth.Tracker, cfg Config) (*Oracle, error) {
	if !tr.Instrumented() {
		return nil, errors.New("oracle: requires aff.Config.Instrument (Truth trailers attribute fragments)")
	}
	o := &Oracle{
		tr:      tr,
		topo:    cfg.Topo,
		visible: cfg.Visible,
		smoothT: make(map[radio.NodeID]float64),
	}
	tr.Attach(o)
	return o, nil
}

// Opened is part of truth.Observer; the tracker counts openings.
func (o *Oracle) Opened(*truth.Tx, *truth.Frame) {}

// Sent audits one fragment put on air: a fragment contradicting ground
// truth is a conservation violation.
func (o *Oracle) Sent(_ *truth.Frame, _ *truth.Tx, violation bool) {
	if violation {
		o.rep.ConservationViolations++
	}
}

// Fate audits one reception: fragment conservation on every delivery. A
// corrupted delivery (fault injection damaged this receiver's copy) is
// counted but not byte-checked — catching it is the checksum layer's job.
func (o *Oracle) Fate(_ radio.NodeID, f *truth.Frame, tx *truth.Tx, fate radio.Fate) {
	switch fate {
	case radio.FateCorrupted:
		o.rep.FragmentsDelivered++
		o.rep.CorruptedDeliveries++
		return
	case radio.FateDelivered:
		o.rep.FragmentsDelivered++
	default:
		return
	}
	if f == nil || f.Truth == nil {
		o.rep.Unaudited++
		return
	}
	if f.Intro {
		if tx == nil || !tx.HaveLen || tx.TotalLen != f.TotalLen || tx.Checksum != f.Checksum {
			o.rep.ConservationViolations++
		}
		return
	}
	if tx == nil || !tx.Covers(f.Offset, f.Payload) {
		// Delivered bytes the sender never transmitted.
		o.rep.ConservationViolations++
	}
}

// VerifyDelivered audits one packet the reassembler under test delivered
// (wire it to node.AFFOptions.OnDeliver): the never-misdeliver property.
// The packet must correspond to a known transaction, carry that
// transaction's reassembly key, and match its payload byte for byte.
func (o *Oracle) VerifyDelivered(at radio.NodeID, p aff.Packet) {
	o.rep.PacketsAudited++
	if p.Truth == nil {
		o.rep.Unaudited++
		return
	}
	tx := o.tr.Find(truth.Key{Node: p.Truth.Node, Seq: p.Truth.Seq})
	if tx == nil || !tx.HaveLen {
		// Delivered later than the retention window, or never sent. The
		// retention window is sized to the reassembly timeout, so a
		// legitimate delivery cannot outlive it.
		o.rep.Misdeliveries++
		return
	}
	if p.ID != tx.Key || len(p.Data) != tx.TotalLen {
		o.rep.Misdeliveries++
		return
	}
	for i, b := range tx.Payload() {
		if p.Data[i] != b {
			o.rep.Misdeliveries++
			return
		}
	}
}

// DeliveryAudit returns VerifyDelivered bound to one receiver, for
// node.AFFOptions.OnDeliver; nil (no audit) on a nil oracle.
func (o *Oracle) DeliveryAudit(at radio.NodeID) func(aff.Packet) {
	if o == nil {
		return nil
	}
	return func(p aff.Packet) { o.VerifyDelivered(at, p) }
}

// VisibleT returns the true transaction density at node v right now: live
// transactions whose sender is v itself or connected to v. A node with no
// transaction of its own currently live still counts one for itself — a
// sender's next transaction always contends with what it hears, and the
// Equation 4 set-point is undefined below T=1 — matching the experiment
// probe's "itself plus awake neighbors" convention. It reads the tracker
// without changing its state.
func (o *Oracle) VisibleT(v radio.NodeID) int {
	n := 0
	own := false
	o.tr.EachLive(func(tx *truth.Tx) {
		switch {
		case tx.Sender == v:
			n++
			own = true
		case o.visible != nil:
			if o.visible(tx.Sender, v) {
				n++
			}
		case o.topo == nil || o.topo.Connected(tx.Sender, v):
			n++
		}
	})
	if !own {
		n++
	}
	return n
}

// OpenCount reports open transactions medium-wide (tests, debugging).
func (o *Oracle) OpenCount() int { return o.tr.OpenCount() }

// Probe records one scoring sample for node v: the estimator's error
// (estimate minus smoothed true density) and the width controller's gap
// (achieved width minus the omniscient Equation 4 width at that density,
// clamped to [minBits, maxBits] exactly as the controller's target is).
// The instantaneous visible count is folded into a per-node EMA first:
// Equation 4's T is an average concurrency, and scoring against the raw
// count — which flickers between consecutive transactions on fragment
// timescales — would charge the controller for noise no causal estimator
// is meant to follow. It returns the smoothed truth and the optimal
// width it scored against, so callers building per-region tables reuse
// the exact quantities the conformance report was charged with.
func (o *Oracle) Probe(v radio.NodeID, estimate float64, achieved, dataBits, minBits, maxBits int) (trueT float64, optimal int) {
	inst := float64(o.VisibleT(v))
	t, ok := o.smoothT[v]
	if ok {
		t = smoothAlpha*inst + (1-smoothAlpha)*t
	} else {
		t = inst
	}
	o.smoothT[v] = t
	o.rep.EstErrors = append(o.rep.EstErrors, estimate-t)
	h := OptimalWidth(dataBits, t, minBits, maxBits)
	o.rep.WidthGaps = append(o.rep.WidthGaps, float64(achieved-h))
	return t, h
}

// Report returns a copy of the conformance report accumulated so far: the
// oracle's audit tallies plus the tracker's lifecycle counts. The sample
// slices are shared with the oracle; callers must not mutate them.
func (o *Oracle) Report() Report {
	r := o.rep
	c := o.tr.Counts()
	r.TransactionsOpened = c.Opened
	r.TransactionsClosed = c.Closed
	r.TransactionsStalled = c.Stalled
	r.TransactionsRevived = c.Revived
	r.TransactionsAbandoned = c.Abandoned
	r.FragmentsSent = c.FragmentsSent
	r.Unaudited += c.Unattributed
	r.CollisionEvents = c.Collisions
	r.FreshnessViolations = c.Freshness
	return r
}
