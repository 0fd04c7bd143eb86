package experiment

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"retri/internal/aff"
	"retri/internal/core"
	"retri/internal/metrics"
	"retri/internal/node"
	"retri/internal/radio"
	"retri/internal/sim"
	"retri/internal/span"
	"retri/internal/trace"
	"retri/internal/xrand"
)

// tinyFigure4 is the smallest sweep that still exercises parallel trials,
// both selectors and collisions worth counting.
func tinyFigure4() Figure4Config {
	cfg := DefaultFigure4Config()
	cfg.Trials = 2
	cfg.Duration = time.Second
	cfg.IDBits = []int{3}
	cfg.Selectors = []SelectorKind{SelUniform}
	return cfg
}

// TestObsDoesNotPerturbResults is the zero-perturbation guarantee: the
// figure output must be byte-identical with observability off and on, at
// sequential and parallel settings alike.
func TestObsDoesNotPerturbResults(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	baseline, err := Figure4(tinyFigure4())
	if err != nil {
		t.Fatal(err)
	}
	for _, parallelism := range []int{1, 4} {
		cfg := tinyFigure4()
		cfg.Parallelism = parallelism
		cfg.Obs = &Obs{Metrics: metrics.NewRegistry(), Trace: &trace.Buffer{}}
		res, err := Figure4(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.Render(), baseline.Render(); got != want {
			t.Errorf("parallelism %d: observability changed the table:\n--- without ---\n%s--- with ---\n%s",
				parallelism, want, got)
		}
		if got, want := res.CSV(), baseline.CSV(); got != want {
			t.Errorf("parallelism %d: observability changed the CSV", parallelism)
		}
	}
}

// TestObsParallelMergeIdentical pins the capture-then-merge guarantee the
// trace package documents: per-trial tracers folded by trial index give a
// parallel run the exact metrics snapshot and event stream of a sequential
// one. Run under -race (make check) this is also the regression test for
// sharing "tracing" across parallel trials the sanctioned way.
func TestObsParallelMergeIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	run := func(parallelism int) (metrics.Snapshot, []trace.Event) {
		cfg := tinyFigure4()
		cfg.Parallelism = parallelism
		buf := &trace.Buffer{}
		cfg.Obs = &Obs{Metrics: metrics.NewRegistry(), Trace: buf}
		if _, err := Figure4(cfg); err != nil {
			t.Fatal(err)
		}
		return cfg.Obs.Metrics.Snapshot(), buf.Events()
	}
	seqSnap, seqEvents := run(1)
	parSnap, parEvents := run(4)
	if !reflect.DeepEqual(seqSnap, parSnap) {
		t.Errorf("metrics snapshots diverge:\n--- sequential ---\n%+v\n--- parallel ---\n%+v", seqSnap, parSnap)
	}
	if !reflect.DeepEqual(seqEvents, parEvents) {
		t.Errorf("trace streams diverge: %d events sequential, %d parallel", len(seqEvents), len(parEvents))
	}
	if len(seqEvents) == 0 {
		t.Error("trace capture is empty")
	}
}

// TestObsSnapshotContents spot-checks the metric families the snapshot
// must carry, in particular the observed-vs-predicted collision pair.
func TestObsSnapshotContents(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cfg := tinyFigure4()
	cfg.Parallelism = 2
	cfg.Obs = &Obs{Metrics: metrics.NewRegistry()}
	res, err := Figure4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := cfg.Obs.Metrics.Snapshot()

	counters := make(map[string]int64)
	for _, c := range snap.Counters {
		counters[c.Name+"|"+c.Label] += c.Value
	}
	gauges := make(map[string]float64)
	for _, g := range snap.Gauges {
		gauges[g.Name+"|"+g.Label] = g.Value
	}

	const label = "sel=uniform,bits=3"
	if got := counters["aff_truth_delivered_total|"+label]; got != res.TruthDelivered {
		t.Errorf("aff_truth_delivered_total = %d, result says %d", got, res.TruthDelivered)
	}
	if got := counters["aff_delivered_total|"+label]; got != res.AFFDelivered {
		t.Errorf("aff_delivered_total = %d, result says %d", got, res.AFFDelivered)
	}
	if counters["aff_id_collisions_observed_total|"+label] == 0 {
		t.Error("no identifier collisions observed at 3 bits under 5-way contention")
	}
	observed, okO := gauges["aff_collision_rate_observed|"+label]
	predicted, okP := gauges["aff_collision_rate_predicted|"+label]
	if !okO || !okP {
		t.Fatalf("snapshot lacks the observed/predicted pair: %v", gauges)
	}
	if observed <= 0 || predicted <= 0 {
		t.Errorf("observed %v / predicted %v collision rates should both be positive", observed, predicted)
	}
	if counters["sim_events_processed_total|"] == 0 {
		t.Error("sim event-loop stats missing")
	}
	if counters["radio_events_total|kind=sent"] == 0 {
		t.Error("radio trace bridge metrics missing")
	}

	found := false
	for _, h := range snap.Histograms {
		if h.Name == "node_energy_joules" {
			found = true
			// 4 trials x 6 nodes.
			if h.Count != int64(cfg.Trials*len(cfg.IDBits)*(cfg.Transmitters+1)) {
				t.Errorf("node_energy_joules count = %d, want %d", h.Count, cfg.Trials*(cfg.Transmitters+1))
			}
		}
	}
	if !found {
		t.Error("node_energy_joules histogram missing")
	}
}

// TestObsTraceMarkers: every trial's replayed stream is preceded by a
// trial-start marker naming the configuration.
func TestObsTraceMarkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cfg := tinyFigure4()
	buf := &trace.Buffer{}
	cfg.Obs = &Obs{Trace: buf}
	if _, err := Figure4(cfg); err != nil {
		t.Fatal(err)
	}
	markers := 0
	for _, e := range buf.Events() {
		if e.Kind == trace.Custom && strings.HasPrefix(e.Note, "trial-start figure4 sel=uniform bits=3") {
			markers++
		}
	}
	if markers != cfg.Trials {
		t.Errorf("found %d trial-start markers, want %d", markers, cfg.Trials)
	}
}

// TestObsDisabledIsNil: a nil Obs yields no capture at all.
func TestObsDisabledIsNil(t *testing.T) {
	if obs, tracer := newTrialObs(nil); obs != nil || tracer != nil {
		t.Error("nil Obs produced a capture")
	}
	if obs, tracer := newTrialObs(&Obs{}); obs != nil || tracer != nil {
		t.Error("empty Obs produced a capture")
	}
}

// TestAttachTruthSharesOneTracker: with the oracle and span tracing both
// on, a trial watches the medium through one tracker — every sent frame
// is decoded once, and its fates reuse that decode — and the two
// consumers report one lifecycle.
func TestAttachTruthSharesOneTracker(t *testing.T) {
	eng := sim.NewEngine()
	src := xrand.NewSource(3)
	med := radio.NewMedium(eng, radio.FullMesh{}, radio.DefaultParams(), src.Stream("medium"))
	affCfg := aff.Config{Space: core.MustSpace(8), MTU: 27, Instrument: true, ReassemblyTimeout: 250 * time.Millisecond}
	decodes := 0
	countingUnwrap := func(p []byte) ([]byte, bool) {
		decodes++
		return p, true
	}
	led := span.NewLedger()
	orc, sp, err := attachTruth(med, &Obs{Spans: led}, &TrialObs{},
		truthSpec{AFF: affCfg, Oracle: true, Unwrap: countingUnwrap})
	if err != nil || orc == nil || sp == nil {
		t.Fatalf("attachTruth = %v, %v, %v", orc, sp, err)
	}
	var drivers []*node.AFFDriver
	for id := radio.NodeID(0); id < 2; id++ {
		sel, err := makeSelector(SelUniform, affCfg.Space, src.Stream("sel", fmt.Sprint(id)), nil)
		if err != nil {
			t.Fatal(err)
		}
		d, err := node.NewAFF(med.MustAttach(id), affCfg, sel, node.AFFOptions{Span: sp, OnDeliver: orc.DeliveryAudit(id)})
		if err != nil {
			t.Fatal(err)
		}
		drivers = append(drivers, d)
	}
	for i := 0; i < 3; i++ {
		if err := drivers[0].SendPacket(make([]byte, 60)); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()

	sent := med.Counters().Sent
	if sent == 0 || int64(decodes) != sent {
		t.Fatalf("%d decodes for %d sent frames, want one each", decodes, sent)
	}
	orep, srep := orc.Report(), sp.Report()
	if orep.TransactionsClosed != 3 || orep.PacketsAudited != 3 || orep.Check() != nil {
		t.Fatalf("oracle report %+v", orep)
	}
	if srep.Opened != orep.TransactionsOpened || srep.Closed != orep.TransactionsClosed ||
		srep.FragmentsSent != orep.FragmentsSent || srep.PacketsDelivered != orep.PacketsAudited {
		t.Fatalf("consumers diverged:\nspan   %+v\noracle %+v", srep, orep)
	}

	// Nothing requested: no tracker, nothing installed.
	if orc, sp, err := attachTruth(med, nil, nil, truthSpec{AFF: affCfg}); orc != nil || sp != nil || err != nil {
		t.Fatalf("attachTruth with nothing requested = %v, %v, %v", orc, sp, err)
	}
}
