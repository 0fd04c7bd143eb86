package experiment

import (
	"runtime"
	"testing"
	"time"

	"retri/internal/chaos"
	"retri/internal/xrand"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// The audited sweeps' allocation budgets, in heap allocations per
// offered packet over one seeded trial, setup included. The trials run
// long enough that the packet path outweighs building the field. The
// ground-truth record, the ARQ attempt, its packet buffer, timer
// callback and the receiver's dedupe state, and the relay's forward are
// recycled, so what remains is mostly per-trial warm-up: each node's
// stack, mobility, fault plans, and pools growing to the trial's peak.
// The trials below measure 8.9 and 1.9.
const (
	chaosARQAllocBudget = 13
	multihopAllocBudget = 3
)

// allocsPerOffered runs one trial and returns its heap allocations per
// offered packet.
func allocsPerOffered(t *testing.T, trial func() (offered int64, err error)) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	offered, err := trial()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if offered == 0 {
		t.Fatal("the trial offered no packets")
	}
	return float64(after.Mallocs-before.Mallocs) / float64(offered)
}

// TestChaosARQTrialAllocBudget: a minute of the storm profile under
// adaptive-width ARQ, eight senders, one packet each every 2s.
func TestChaosARQTrialAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	cfg := DefaultChaosConfig()
	cfg.Duration = time.Minute
	var storm chaos.Profile
	for _, p := range chaos.Profiles() {
		if p.Name == "storm" {
			storm = p
		}
	}
	per := allocsPerOffered(t, func() (int64, error) {
		out, err := RunChaosTrial(cfg, storm, WidthAdaptiveTurnover, true, xrand.NewSource(1))
		return out.Offered, err
	})
	t.Logf("%.1f allocations per offered packet", per)
	if per > chaosARQAllocBudget {
		t.Errorf("%.1f allocations per offered packet in a chaos-ARQ trial, budget %d", per, chaosARQAllocBudget)
	}
}

// TestMultihopTrialAllocBudget: 15s of the fixed-width arm, flooded
// across three hops.
func TestMultihopTrialAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	cfg := DefaultMultihopConfig()
	cfg.Duration = 15 * time.Second
	per := allocsPerOffered(t, func() (int64, error) {
		out, err := RunMultihopTrial(cfg, MultihopFixed, xrand.NewSource(1))
		return out.Offered, err
	})
	t.Logf("%.1f allocations per offered packet", per)
	if per > multihopAllocBudget {
		t.Errorf("%.1f allocations per offered packet in a multihop trial, budget %d", per, multihopAllocBudget)
	}
}
