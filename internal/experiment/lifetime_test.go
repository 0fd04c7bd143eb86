package experiment

import (
	"strings"
	"testing"
	"time"
)

func TestRunLifetimeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	cfg := DefaultEfficiencyConfig(Scheme{})
	cfg.Duration = 15 * time.Second
	res, err := RunLifetime(cfg, DefaultLifetimeSchemes())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The baseline (static 32-bit) has lifetime factor exactly 1.
	if got := res.Rows[res.Baseline].LifetimeFactor; got != 1 {
		t.Errorf("baseline factor = %v, want 1", got)
	}
	// The paper's bottom line: AFF outlives both static baselines.
	aff := res.Rows[0]
	st16, st32 := res.Rows[2], res.Rows[3]
	if aff.LifetimeFactor <= st16.LifetimeFactor || aff.LifetimeFactor <= st32.LifetimeFactor {
		t.Errorf("AFF lifetime %v should beat static16 %v and static32 %v",
			aff.LifetimeFactor, st16.LifetimeFactor, st32.LifetimeFactor)
	}
	// Cost columns populated and positive.
	for _, row := range res.Rows {
		if row.JoulesPerUsefulKbit <= 0 || row.E <= 0 {
			t.Errorf("row %s incomplete: %+v", row.Scheme.Label(), row)
		}
	}
	out := res.Render()
	if !strings.Contains(out, "(baseline)") || !strings.Contains(out, "lifetime x") {
		t.Error("Render() incomplete")
	}
}

func TestRunLifetimeValidation(t *testing.T) {
	cfg := DefaultEfficiencyConfig(Scheme{})
	cfg.Duration = 5 * time.Second
	if _, err := RunLifetime(cfg, []Scheme{AFFScheme(9, SelUniform)}); err == nil {
		t.Error("single-scheme comparison accepted")
	}
}
