package experiment

import (
	"testing"
	"time"

	"retri/internal/oracle"
	"retri/internal/span"
)

// lifecycle projects a report onto the counts the ground-truth tracker
// owns.
type lifecycle struct {
	opened, closed, stalled, revived, abandoned int64
	fragments, collisions, freshness            int64
}

// checkConformance is the structural check that the span tracer and the
// oracle consume one ground-truth tracker: every lifecycle count agrees
// exactly, both saw the same delivered packets, and the tracer attributed
// every frame and receiver event it was handed.
func checkConformance(t *testing.T, what string, srep span.Report, orep oracle.Report) {
	t.Helper()
	s := lifecycle{srep.Opened, srep.Closed, srep.Stalled, srep.Revived, srep.Abandoned,
		srep.FragmentsSent, srep.CollisionEvents, srep.FreshnessViolations}
	o := lifecycle{orep.TransactionsOpened, orep.TransactionsClosed, orep.TransactionsStalled,
		orep.TransactionsRevived, orep.TransactionsAbandoned,
		orep.FragmentsSent, orep.CollisionEvents, orep.FreshnessViolations}
	if s != o {
		t.Errorf("%s: lifecycle diverged:\n span   %+v\n oracle %+v", what, s, o)
	}
	if srep.PacketsDelivered != orep.PacketsAudited {
		t.Errorf("%s: span saw %d deliveries, oracle audited %d", what, srep.PacketsDelivered, orep.PacketsAudited)
	}
	if srep.Opened == 0 {
		t.Errorf("%s: no transactions traced — conformance vacuous", what)
	}
	if srep.Anomalies != 0 || srep.OrphanEvents != 0 {
		t.Errorf("%s: span anomalies=%d orphans=%d, want 0", what, srep.Anomalies, srep.OrphanEvents)
	}
}

// ledgerStateCounts cross-checks the flattened records against the
// report: the per-span stories and the aggregate counters are two views
// of one machine.
func ledgerStateCounts(t *testing.T, what string, led *span.Ledger) {
	t.Helper()
	rep := led.Report()
	var closed, abandoned, spans int64
	for _, r := range led.Records() {
		spans++
		switch r.State {
		case "closed":
			closed++
		case "abandoned":
			abandoned++
		}
		if r.OpenedNS >= 0 && r.FragsSent == 0 {
			t.Errorf("%s: span %s#%d opened with no fragments", what, r.Trial, r.Span)
		}
	}
	if spans != rep.Spans || closed != rep.Closed || abandoned != rep.Abandoned {
		t.Errorf("%s: records (spans=%d closed=%d abandoned=%d) vs report (spans=%d closed=%d abandoned=%d)",
			what, spans, closed, abandoned, rep.Spans, rep.Closed, rep.Abandoned)
	}
}

func TestSpanOracleConformanceDynamics(t *testing.T) {
	cfg := DefaultDynamicsConfig()
	cfg.Senders = 5
	cfg.Duration = 30 * time.Second
	cfg.Trials = 2
	// Churn exercises the whole lifecycle: crashes abandon transactions
	// mid-flight, duty cycles stall and revive them, and the narrow
	// fixed pool forces identifier collisions.
	cfg.Scenarios = []DynScenario{DynChurn}
	cfg.Policies = []WidthPolicyKind{WidthFixed, WidthAdaptive}
	cfg.FixedBits = 4
	cfg.Oracle = true
	led := span.NewLedger()
	cfg.Obs = &Obs{Spans: led}

	res, err := Dynamics(cfg)
	if err != nil {
		t.Fatalf("Dynamics: %v", err)
	}
	var orep oracle.Report
	for _, r := range res.Rows {
		if r.Oracle == nil {
			t.Fatalf("row %s/%s missing oracle report", r.Scenario, r.Policy)
		}
		orep.Merge(*r.Oracle)
	}
	checkConformance(t, "dynamics", led.Report(), orep)
	ledgerStateCounts(t, "dynamics", led)
}

func TestSpanOracleConformanceStrategies(t *testing.T) {
	cfg := DefaultStrategiesConfig()
	cfg.Strategies = []string{"uniform", "listening"}
	cfg.Densities = []int{5}
	cfg.IDBits = 4 // narrow pool: collisions guaranteed
	cfg.Duration = 20 * time.Second
	cfg.Trials = 2
	cfg.Oracle = true
	led := span.NewLedger()
	cfg.Obs = &Obs{Spans: led}

	res, err := Strategies(cfg)
	if err != nil {
		t.Fatalf("Strategies: %v", err)
	}
	var orep oracle.Report
	for _, r := range res.Rows {
		if r.Oracle == nil {
			t.Fatalf("row %s/%d missing oracle report", r.Strategy, r.T)
		}
		orep.Merge(*r.Oracle)
	}
	srep := led.Report()
	checkConformance(t, "strategies", srep, orep)
	if srep.CollisionEvents == 0 {
		t.Error("strategies: narrow pool produced no collisions — scenario too tame to validate collision parity")
	}
	ledgerStateCounts(t, "strategies", led)
}

// TestSpanOracleConformanceMultihop covers relayed traffic: copies of a
// transaction keep airing long after its originator closed it, so the
// span tracer must retain retired transactions exactly as long as the
// oracle does or it reopens them as phantom transactions.
func TestSpanOracleConformanceMultihop(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cfg := driftMultihop()
	led := span.NewLedger()
	cfg.Obs = &Obs{Spans: led}
	res, err := Multihop(cfg)
	if err != nil {
		t.Fatalf("Multihop: %v", err)
	}
	var orep oracle.Report
	for _, r := range res.Rows {
		if r.Oracle == nil {
			t.Fatalf("%s arm missing oracle report", r.Arm)
		}
		orep.Merge(*r.Oracle)
	}
	checkConformance(t, "multihop", led.Report(), orep)
	ledgerStateCounts(t, "multihop", led)
}

// Parallel and sequential runs of the same seed must fold to the same
// ledger — the capture-then-merge discipline, extended to spans.
func TestSpanLedgerParallelDeterminism(t *testing.T) {
	run := func(parallelism int) *span.Ledger {
		cfg := DefaultStrategiesConfig()
		cfg.Strategies = []string{"uniform"}
		cfg.Densities = []int{3}
		cfg.IDBits = 6
		cfg.Duration = 10 * time.Second
		cfg.Trials = 3
		cfg.Oracle = false
		cfg.Parallelism = parallelism
		led := span.NewLedger()
		cfg.Obs = &Obs{Spans: led}
		if _, err := Strategies(cfg); err != nil {
			t.Fatalf("Strategies(parallelism=%d): %v", parallelism, err)
		}
		return led
	}
	seq := run(1)
	par := run(4)
	sr, pr := seq.Records(), par.Records()
	if len(sr) != len(pr) {
		t.Fatalf("record counts differ: %d vs %d", len(sr), len(pr))
	}
	for i := range sr {
		if sr[i].Trial != pr[i].Trial || sr[i].Key != pr[i].Key ||
			sr[i].OpenedNS != pr[i].OpenedNS || sr[i].Outcome != pr[i].Outcome {
			t.Fatalf("record %d differs:\nseq: %+v\npar: %+v", i, sr[i], pr[i])
		}
	}
	if seq.Report() != par.Report() {
		t.Fatalf("reports differ:\nseq: %+v\npar: %+v", seq.Report(), par.Report())
	}
}
