package experiment

import (
	"strings"
	"testing"
	"time"
)

func massiveTestConfig() MassiveConfig {
	cfg := DefaultMassiveConfig()
	cfg.Populations = []int{1_500, 6_000}
	cfg.Duration = 2 * time.Second
	cfg.NodesPerTile = 300
	cfg.AuditEvery = 4
	return cfg
}

// TestMassiveDeterminism: the sweep's stdout surfaces (Render and CSV) must
// be byte-identical at every worker count — the acceptance contract for the
// sharded core. Wall-clock lives only in PerfNote, which is exempt.
func TestMassiveDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep")
	}
	cfg := massiveTestConfig()
	cfg.Parallelism = 1
	ref, err := Massive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{3, 8} {
		cfg.Parallelism = workers
		got, err := Massive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Render() != got.Render() {
			t.Errorf("parallel=%d: Render diverged\n--- parallel=1:\n%s--- parallel=%d:\n%s",
				workers, ref.Render(), workers, got.Render())
		}
		if ref.CSV() != got.CSV() {
			t.Errorf("parallel=%d: CSV diverged", workers)
		}
	}
}

// TestMassiveWidthTracksT: the paper's thesis as an assertion. Across a 4x
// population jump at constant density, the adaptive arm's achieved width
// must stay within one bit of itself, far from scaling with N, and the
// sweep must pass its own audit gate.
func TestMassiveWidthTracksT(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep")
	}
	cfg := massiveTestConfig()
	cfg.Parallelism = 4
	res, err := Massive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	var widths []float64
	for _, r := range res.Rows {
		if r.Counters.Offered == 0 {
			t.Fatalf("%s: no transactions offered", r.Label())
		}
		switch r.Policy {
		case WidthFixed:
			if w := r.Counters.MeanWidth(); w != float64(cfg.FixedBits) {
				t.Errorf("%s: fixed arm width %g, want %d", r.Label(), w, cfg.FixedBits)
			}
		case WidthAdaptiveTurnover:
			widths = append(widths, r.Counters.MeanWidth())
		}
	}
	if len(widths) != 2 {
		t.Fatalf("expected 2 adaptive cells, got %d", len(widths))
	}
	spread := widths[1] - widths[0]
	if spread < 0 {
		spread = -spread
	}
	if spread > 1.5 {
		t.Errorf("adaptive width moved %.2f bits across a 4x population jump (widths %v); width should track T, not N",
			spread, widths)
	}
}

// TestMassiveValidate rejects the configs the sweep cannot run.
func TestMassiveValidate(t *testing.T) {
	bad := []func(*MassiveConfig){
		func(c *MassiveConfig) { c.Populations = nil },
		func(c *MassiveConfig) { c.Trials = 0 },
		func(c *MassiveConfig) { c.Duration = 0 },
		func(c *MassiveConfig) { c.Policies = []WidthPolicyKind{WidthAdaptive} },
		func(c *MassiveConfig) { c.PacketSize = 0 },
		func(c *MassiveConfig) { c.Populations = []int{0} },
		func(c *MassiveConfig) { c.NodesPerTile = 0 },
		func(c *MassiveConfig) { c.FrameLoss = 1.5 },
	}
	for i, mut := range bad {
		cfg := DefaultMassiveConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad massive config %d accepted", i)
		}
	}
	if err := DefaultMassiveConfig().Validate(); err != nil {
		t.Errorf("default massive config rejected: %v", err)
	}
}

// TestParsePopulations covers the -nodes flag grammar.
func TestParsePopulations(t *testing.T) {
	got, err := ParsePopulations(" 100, 2000 ,30000")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 100 || got[1] != 2000 || got[2] != 30000 {
		t.Errorf("ParsePopulations: got %v", got)
	}
	for _, s := range []string{"", " , ", "abc", "-5", "0", "10,x"} {
		if _, err := ParsePopulations(s); err == nil {
			t.Errorf("ParsePopulations(%q) accepted", s)
		}
	}
}

// TestMassiveCSVShape: header and rows agree on column count and the CSV
// carries one line per (population, policy) cell plus the header.
func TestMassiveCSVShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep")
	}
	cfg := massiveTestConfig()
	cfg.Populations = []int{1_000}
	cfg.Duration = time.Second
	cfg.Parallelism = 2
	res, err := Massive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(res.CSV()), "\n")
	want := 1 + len(cfg.Populations)*len(cfg.Policies)
	if len(lines) != want {
		t.Fatalf("CSV has %d lines, want %d", len(lines), want)
	}
	cols := strings.Count(lines[0], ",")
	for i, ln := range lines {
		if strings.Count(ln, ",") != cols {
			t.Errorf("CSV line %d has %d commas, header has %d", i, strings.Count(ln, ","), cols)
		}
	}
}

// TestMassiveReportsProgress: Hooks.OnProgress sees every trial of the
// sweep in order, 1..N of N with N = populations x policies x trials, so
// `-figure massive -progress` reports like every other figure.
func TestMassiveReportsProgress(t *testing.T) {
	cfg := DefaultMassiveConfig()
	cfg.Populations = []int{500, 1_000}
	cfg.Duration = 100 * time.Millisecond
	cfg.Trials = 2
	want := len(cfg.Populations) * len(cfg.Policies) * cfg.Trials
	var got []int
	cfg.Hooks.OnProgress = func(done, total int) {
		if total != want {
			t.Errorf("progress total = %d, want %d", total, want)
		}
		got = append(got, done)
	}
	if _, err := Massive(cfg); err != nil {
		t.Fatal(err)
	}
	if len(got) != want {
		t.Fatalf("progress calls = %v, want 1..%d", got, want)
	}
	for i, done := range got {
		if done != i+1 {
			t.Fatalf("progress calls = %v, want 1..%d", got, want)
		}
	}
}
