package experiment

import (
	"encoding/csv"
	"reflect"
	"strings"
	"testing"
	"time"

	"retri/internal/metrics"
	"retri/internal/mobility"
)

// smallMultihop shrinks the sweep to something that can run several times
// in a test while still being genuinely multi-hop (field two ranges
// across) and covering all three arms, churn, and both mobility models.
// The default 40 kb/s radio keeps the saturated channel's event count —
// and hence wall-clock — low.
func smallMultihop() MultihopConfig {
	cfg := DefaultMultihopConfig()
	cfg.Params = nil
	cfg.Senders = 4
	cfg.CoreSenders = 2
	cfg.Trials = 2
	cfg.Duration = 6 * time.Second
	cfg.SampleInterval = time.Second
	cfg.Area = mobility.Area{W: 40, H: 40}
	cfg.Range = 12
	cfg.GroupSpread = 4
	cfg.DedupWindow = 2 * time.Second
	cfg.OracleRetain = 2 * time.Second
	cfg.Duty = mobility.DutyCycle{MeanUp: 3 * time.Second, MeanDown: time.Second}
	return cfg
}

func TestMultihopValidate(t *testing.T) {
	bad := []func(*MultihopConfig){
		func(c *MultihopConfig) { c.Senders = 0 },
		func(c *MultihopConfig) { c.Trials = 0 },
		func(c *MultihopConfig) { c.Arms = nil },
		func(c *MultihopConfig) { c.Arms = []MultihopArm{"telepathic"} },
		func(c *MultihopConfig) { c.CoreSenders = -1 },
		func(c *MultihopConfig) { c.CoreSenders = c.Senders + 1 },
		func(c *MultihopConfig) { c.PacketSize = 0 },
		func(c *MultihopConfig) { c.SampleInterval = 0 },
		func(c *MultihopConfig) { c.SampleInterval = c.Duration + time.Second },
		func(c *MultihopConfig) { c.Regions = 0 },
		func(c *MultihopConfig) { c.Regions = 17 },
		func(c *MultihopConfig) { c.FixedBits = 0 },
		func(c *MultihopConfig) { c.MinBits = 9; c.MaxBits = 4 },
		func(c *MultihopConfig) { c.MaxBits = 40 },
		func(c *MultihopConfig) { c.AddrBits = 0 },
		func(c *MultihopConfig) { c.AddrBits = 17 },
		func(c *MultihopConfig) { c.TTL = 0 },
		func(c *MultihopConfig) { c.TTL = 16 },
		func(c *MultihopConfig) { c.DedupWindow = 0 },
		func(c *MultihopConfig) { c.ForwardJitter = -time.Millisecond },
		func(c *MultihopConfig) { c.OracleRetain = -time.Second },
		func(c *MultihopConfig) { c.Area = mobility.Area{} },
		func(c *MultihopConfig) { c.Range = 0 },
		func(c *MultihopConfig) { c.MinSpeed = 0 },
		func(c *MultihopConfig) { c.MaxSpeed = c.MinSpeed / 2 },
		func(c *MultihopConfig) { c.GroupSpread = -1 },
		func(c *MultihopConfig) { c.Duty = mobility.DutyCycle{} },
	}
	for i, mutate := range bad {
		cfg := DefaultMultihopConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if err := DefaultMultihopConfig().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestParseMultihopArms(t *testing.T) {
	got, err := ParseMultihopArms("fixed, dynaddr")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []MultihopArm{MultihopFixed, MultihopDynaddr}) {
		t.Errorf("parsed %v", got)
	}
	if all, _ := ParseMultihopArms("all"); !reflect.DeepEqual(all, AllMultihopArms()) {
		t.Errorf("all parsed as %v", all)
	}
	for _, bad := range []string{"", "telepathic", "fixed,,bogus", " , "} {
		if _, err := ParseMultihopArms(bad); err == nil {
			t.Errorf("arm list %q accepted", bad)
		}
	}
}

// TestMultihopParallelByteIdentical: the multihop sweep honors the repo's
// parallel-runner contract — table, CSV and folded metrics of a parallel
// run match the sequential run exactly, with the always-on oracle and the
// dynaddr arm's allocator riding along.
func TestMultihopParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	run := func(parallelism int) (MultihopResult, *metrics.Registry) {
		cfg := smallMultihop()
		cfg.Parallelism = parallelism
		reg := metrics.NewRegistry()
		cfg.Obs = &Obs{Metrics: reg}
		res, err := Multihop(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, reg
	}
	seq, seqReg := run(1)
	par, parReg := run(4)
	if got, want := par.CSV(), seq.CSV(); got != want {
		t.Errorf("parallel CSV differs from sequential:\n--- sequential ---\n%s--- parallel ---\n%s", want, got)
	}
	if got, want := par.Render(), seq.Render(); got != want {
		t.Errorf("parallel table differs from sequential:\n--- sequential ---\n%s--- parallel ---\n%s", want, got)
	}
	if !reflect.DeepEqual(parReg.Snapshot(), seqReg.Snapshot()) {
		t.Error("parallel metrics snapshot differs from sequential")
	}
}

// TestMultihopOracleConformance: the AFF arms always carry an oracle
// report, it audits real traffic, and a healthy sweep produces zero
// misdeliveries, conservation or freshness violations. The dynaddr arm has
// no AFF wire format to audit but must account its allocation overhead.
func TestMultihopOracleConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	res, err := Multihop(smallMultihop())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Arm == MultihopDynaddr {
			if r.Oracle != nil {
				t.Error("dynaddr arm carries an oracle report")
			}
			if r.Alloc.Acquisitions == 0 || r.Alloc.ClaimsSent == 0 || r.Alloc.ControlBits == 0 {
				t.Errorf("dynaddr arm accounted no allocation overhead: %+v", r.Alloc)
			}
			continue
		}
		if r.Oracle == nil {
			t.Fatalf("%s arm missing oracle report", r.Arm)
		}
		if err := r.Oracle.Check(); err != nil {
			t.Errorf("%s arm violates conformance: %v", r.Arm, err)
		}
		if r.Oracle.PacketsAudited == 0 {
			t.Errorf("%s arm oracle audited nothing: %+v", r.Arm, r.Oracle)
		}
		if r.Alloc.ClaimsSent != 0 || r.Alloc.ControlBits != 0 {
			t.Errorf("%s arm charged allocation overhead: %+v", r.Arm, r.Alloc)
		}
	}
}

// TestMultihopCSVShape: every record — summary, per-region, time series —
// has the full header width so downstream plotting can index columns
// positionally.
func TestMultihopCSVShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cfg := smallMultihop()
	cfg.Trials = 1
	res, err := Multihop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(res.CSV())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 2 {
		t.Fatalf("CSV has %d records", len(recs))
	}
	const wantCols = 29
	if len(recs[0]) != wantCols {
		t.Fatalf("header has %d columns, want %d", len(recs[0]), wantCols)
	}
	kinds := map[string]int{}
	for i, rec := range recs[1:] {
		if len(rec) != wantCols {
			t.Fatalf("record %d has %d columns, want %d", i+1, len(rec), wantCols)
		}
		kinds[rec[0]]++
	}
	if kinds["summary"] != len(res.Rows) {
		t.Errorf("%d summary records, want %d", kinds["summary"], len(res.Rows))
	}
	for _, want := range []string{"summary", "region", "h_t"} {
		if kinds[want] == 0 {
			t.Errorf("no %q records", want)
		}
	}
	for kind := range kinds {
		if kind != "summary" && kind != "region" && kind != "h_t" {
			t.Errorf("unexpected record kind %q", kind)
		}
	}
}

// TestMultihopRegionalDivergence is the tentpole's acceptance gate, on a
// shortened single-trial cut of the tuned deployment: under the same
// mobility the adaptive arm's densest core cell must track its clamped
// Eq. 4 optimum to within striking distance (the full sweep measures
// ~1.1 bits), while the fixed arm's global width overshoots the sparse
// edge's optimum by several bits — the per-region divergence the paper's
// adaptive story predicts.
func TestMultihopRegionalDivergence(t *testing.T) {
	if testing.Short() {
		t.Skip("long tuned simulation sweep")
	}
	cfg := DefaultMultihopConfig()
	cfg.Duration = 80 * time.Second
	cfg.Trials = 1
	cfg.Arms = []MultihopArm{MultihopFixed, MultihopAdaptive}
	res, err := Multihop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[MultihopArm]MultihopRow{}
	for _, r := range res.Rows {
		rows[r.Arm] = r
	}
	adaptive, ok := rows[MultihopAdaptive]
	if !ok {
		t.Fatal("no adaptive-turnover row")
	}
	// The densest cell is where the estimators hear the most traffic and
	// the controller has the most evidence; gate conformance there.
	var core MultihopRegion
	for _, reg := range adaptive.Regions {
		if reg.Samples > core.Samples {
			core = reg
		}
	}
	if core.Samples < 100 {
		t.Fatalf("densest adaptive cell has only %d samples", core.Samples)
	}
	if core.Gap > 1.6 {
		t.Errorf("adaptive core cell %d gap %.2f bits (T=%.2f, ach %.2f vs opt %.2f), want <= 1.6",
			core.Index, core.Gap, core.MeanT, core.AchievedH, core.OptimalH)
	}
	if adaptive.Oracle == nil {
		t.Fatal("adaptive row missing oracle report")
	}
	if err := adaptive.Oracle.Check(); err != nil {
		t.Errorf("adaptive arm violates conformance: %v", err)
	}
	fixed, ok := rows[MultihopFixed]
	if !ok {
		t.Fatal("no fixed row")
	}
	// The fixed arm's width never bends toward any region's optimum: its
	// worst cell must waste strictly more bits than the adaptive arm's
	// worst cell, and by a wide margin in the sparse edge.
	worst := func(r MultihopRow) float64 {
		var w float64
		for _, reg := range r.Regions {
			if reg.Samples >= 20 && reg.Gap > w {
				w = reg.Gap
			}
		}
		return w
	}
	wf, wa := worst(fixed), worst(adaptive)
	if wf <= wa {
		t.Errorf("fixed arm worst-cell gap %.2f not worse than adaptive %.2f", wf, wa)
	}
	if wf < 2 {
		t.Errorf("fixed arm worst-cell gap %.2f bits; expected the global width to overshoot a sparse region by >= 2", wf)
	}
}
