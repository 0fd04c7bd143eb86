package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"retri/internal/chaos"
	"retri/internal/metrics"
	"retri/internal/oracle"
	"retri/internal/span"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from this build")

// goldenDigest pins one small seeded sweep: the rendered table plus CSV,
// the span ledger, the metrics snapshot (which carries the event loop's
// sim_* accounting), and each row's oracle report. Stalled counts are kept
// out of the report digests and listed plainly, so a change confined to
// them shows up as a readable diff rather than an opaque hash.
type goldenDigest struct {
	Output  string   `json:"output"`
	Ledger  string   `json:"ledger"`
	Metrics string   `json:"metrics"`
	Oracle  []string `json:"oracle"`
	Stalled []int64  `json:"stalled"`
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digestRun folds one sweep's outputs into a goldenDigest. A nil report
// (a row the oracle does not audit) digests as "none".
func digestRun(t *testing.T, text string, led *span.Ledger, reg *metrics.Registry, reps []*oracle.Report) goldenDigest {
	t.Helper()
	var buf bytes.Buffer
	if err := led.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	d := goldenDigest{Output: sha([]byte(text)), Ledger: sha(buf.Bytes()), Metrics: sha(snap)}
	for _, r := range reps {
		if r == nil {
			d.Oracle = append(d.Oracle, "none")
			d.Stalled = append(d.Stalled, -1)
			continue
		}
		c := *r
		d.Stalled = append(d.Stalled, c.TransactionsStalled)
		c.TransactionsStalled = 0
		d.Oracle = append(d.Oracle, sha([]byte(fmt.Sprintf("%+v", c))))
	}
	return d
}

// goldenRuns are the pinned sweeps. Most cover an experiment that
// attaches the oracle or the span tracer; recovery runs with and without
// the oracle so both span attribution modes (truth-keyed and per-sender
// FIFO) are pinned. Figure 4 pins the paper's saturated single-hop path
// (engine, medium, reassembly, density) and massive the sharded core.
var goldenRuns = []struct {
	name string
	run  func(t *testing.T, parallelism int, obs *Obs) (string, []*oracle.Report)
}{
	{"dynamics-churn-4bit", func(t *testing.T, parallelism int, obs *Obs) (string, []*oracle.Report) {
		cfg := DefaultDynamicsConfig()
		cfg.Senders = 5
		cfg.Duration = 10 * time.Second
		cfg.Trials = 2
		cfg.Scenarios = []DynScenario{DynChurn}
		cfg.Policies = []WidthPolicyKind{WidthFixed, WidthAdaptive}
		cfg.FixedBits = 4
		cfg.Duty.MeanUp = 3 * time.Second
		cfg.Duty.MeanDown = time.Second
		cfg.Oracle = true
		cfg.Parallelism = parallelism
		cfg.Obs = obs
		res, err := Dynamics(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var reps []*oracle.Report
		for _, r := range res.Rows {
			reps = append(reps, r.Oracle)
		}
		return res.Render() + res.CSV(), reps
	}},
	{"strategies-4bit", func(t *testing.T, parallelism int, obs *Obs) (string, []*oracle.Report) {
		cfg := DefaultStrategiesConfig()
		cfg.Strategies = []string{"uniform", "listening"}
		cfg.Densities = []int{5}
		cfg.IDBits = 4
		cfg.Duration = 8 * time.Second
		cfg.Trials = 2
		cfg.Parallelism = parallelism
		cfg.Obs = obs
		res, err := Strategies(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var reps []*oracle.Report
		for _, r := range res.Rows {
			reps = append(reps, r.Oracle)
		}
		return res.Render() + res.CSV(), reps
	}},
	{"recovery-oracle", func(t *testing.T, parallelism int, obs *Obs) (string, []*oracle.Report) {
		return goldenRecovery(t, true, parallelism, obs)
	}},
	{"recovery-fifo", func(t *testing.T, parallelism int, obs *Obs) (string, []*oracle.Report) {
		return goldenRecovery(t, false, parallelism, obs)
	}},
	{"chaos-calm-storm", func(t *testing.T, parallelism int, obs *Obs) (string, []*oracle.Report) {
		cfg := smallChaos()
		cfg.Duration = 8 * time.Second
		cfg.Profiles = []chaos.Profile{chaos.Calm(), chaos.Storm()}
		cfg.Parallelism = parallelism
		cfg.Obs = obs
		res, err := Chaos(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var reps []*oracle.Report
		for _, r := range res.Rows {
			reps = append(reps, r.Oracle)
		}
		return res.Render() + res.CSV(), reps
	}},
	{"multihop", func(t *testing.T, parallelism int, obs *Obs) (string, []*oracle.Report) {
		cfg := driftMultihop()
		cfg.Parallelism = parallelism
		cfg.Obs = obs
		res, err := Multihop(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var reps []*oracle.Report
		for _, r := range res.Rows {
			reps = append(reps, r.Oracle)
		}
		return res.Render() + res.CSV(), reps
	}},
	{"figure4-small", func(t *testing.T, parallelism int, obs *Obs) (string, []*oracle.Report) {
		cfg := DefaultFigure4Config()
		cfg.Selectors = []SelectorKind{SelUniform, SelListening}
		cfg.IDBits = []int{3, 6}
		cfg.Duration = 10 * time.Second
		cfg.Trials = 2
		cfg.Parallelism = parallelism
		cfg.Obs = obs
		res, err := Figure4(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Render() + res.CSV(), nil
	}},
	{"massive-2000", func(t *testing.T, parallelism int, _ *Obs) (string, []*oracle.Report) {
		cfg := DefaultMassiveConfig()
		cfg.Populations = []int{2000}
		cfg.Parallelism = parallelism
		res, err := Massive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Check(); err != nil {
			t.Fatal(err)
		}
		return res.Render() + res.CSV(), nil
	}},
}

func goldenRecovery(t *testing.T, withOracle bool, parallelism int, obs *Obs) (string, []*oracle.Report) {
	cfg := smallRecovery()
	cfg.Oracle = withOracle
	cfg.Parallelism = parallelism
	cfg.Obs = obs
	res, err := Recovery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var reps []*oracle.Report
	for _, r := range res.Rows {
		reps = append(reps, r.Oracle)
	}
	return res.Render() + res.CSV(), reps
}

// driftMultihop is the default multihop field, cut to two short trials of
// the AFF arms: long enough for relayed copies to outlive a reassembly
// timeout, which is where ground-truth retention matters.
func driftMultihop() MultihopConfig {
	cfg := DefaultMultihopConfig()
	cfg.Trials = 2
	cfg.Duration = 5 * time.Second
	cfg.Arms = []MultihopArm{MultihopFixed, MultihopAdaptive}
	return cfg
}

// TestGoldenDigests pins the stdout, span ledgers and oracle reports of
// small seeded sweeps, sequential and parallel, against
// testdata/golden.json. Regenerate with -update-golden only for a
// deliberate output change, and say why in the commit.
func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweeps")
	}
	path := filepath.Join("testdata", "golden.json")
	got := make(map[string]goldenDigest)
	for _, g := range goldenRuns {
		for _, parallelism := range []int{1, 4} {
			led, reg := span.NewLedger(), metrics.NewRegistry()
			text, reps := g.run(t, parallelism, &Obs{Spans: led, Metrics: reg})
			d := digestRun(t, text, led, reg, reps)
			if prev, ok := got[g.name]; ok {
				if fmt.Sprint(prev) != fmt.Sprint(d) {
					t.Errorf("%s: parallelism %d digests differ from sequential:\n%+v\n%+v", g.name, parallelism, d, prev)
				}
				continue
			}
			got[g.name] = d
		}
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	var want map[string]goldenDigest
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: pinned run no longer exists", name)
			continue
		}
		if g.Output != w.Output {
			t.Errorf("%s: Render()+CSV() digest changed", name)
		}
		if g.Ledger != w.Ledger {
			t.Errorf("%s: span ledger digest changed", name)
		}
		if g.Metrics != w.Metrics {
			t.Errorf("%s: metrics snapshot digest changed", name)
		}
		if fmt.Sprint(g.Oracle) != fmt.Sprint(w.Oracle) {
			t.Errorf("%s: oracle report digests changed:\n got %v\nwant %v", name, g.Oracle, w.Oracle)
		}
		if fmt.Sprint(g.Stalled) != fmt.Sprint(w.Stalled) {
			t.Errorf("%s: oracle stalled counts changed: got %v, want %v", name, g.Stalled, w.Stalled)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: run has no pinned digest (run with -update-golden)", name)
		}
	}
}
