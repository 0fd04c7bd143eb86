package experiment

import (
	"testing"
	"time"

	"retri/internal/energy"
)

// errOf drops an entry point's result, keeping its error.
func errOf[R any](_ R, err error) error { return err }

// TestEverySweepRejectsABadRunBeforeTrials runs every sweep entry point
// with a zero Duration, a negative Parallelism and, where the config has
// trials, zero Trials. Each run must fail before its first trial, instead
// of reporting a 0 rate or a NaN mean, or running on a fan-out nobody
// asked for.
func TestEverySweepRejectsABadRunBeforeTrials(t *testing.T) {
	fig4 := func(r Run, trials int) Figure4Config {
		cfg := smallFigure4()
		cfg.Run, cfg.Trials = r, trials
		return cfg
	}
	eff := func(r Run) EfficiencyConfig {
		cfg := quickEfficiencyConfig(Scheme{})
		cfg.Run = r
		return cfg
	}
	schemes := []Scheme{AFFScheme(9, SelUniform), StaticScheme(16)}
	entries := []struct {
		name   string
		trials bool // the config has Trials
		run    func(r Run, trials int) error
	}{
		{"Figure4", true, func(r Run, n int) error { return errOf(Figure4(fig4(r, n))) }},
		{"AblationListeningWindow", true, func(r Run, n int) error {
			return errOf(AblationListeningWindow(fig4(r, n), 6, []int{1, 10}))
		}},
		{"AblationHiddenTerminal", true, func(r Run, n int) error {
			return errOf(AblationHiddenTerminal(fig4(r, n), 5, []SelectorKind{SelUniform}))
		}},
		{"AblationTransactionLengths", true, func(r Run, n int) error {
			return errOf(AblationTransactionLengths(fig4(r, n), 6, []int{20, 80}))
		}},
		{"AblationEstimator", true, func(r Run, n int) error { return errOf(AblationEstimator(fig4(r, n), 6)) }},
		{"RunScaling", true, func(r Run, n int) error {
			cfg := quickScalingConfig()
			cfg.Run, cfg.Trials = r, n
			return errOf(RunScaling(cfg))
		}},
		{"AblationFloodIDBits", true, func(r Run, n int) error {
			cfg := quickFloodConfig()
			cfg.Run, cfg.Trials = r, n
			return errOf(AblationFloodIDBits(cfg))
		}},
		{"AblationMACOverhead", false, func(r Run, _ int) error {
			return errOf(AblationMACOverhead(eff(r), schemes, []energy.MACProfile{energy.BareProfile()}))
		}},
		{"RunLifetime", false, func(r Run, _ int) error { return errOf(RunLifetime(eff(r), schemes)) }},
		{"AblationDynAddrChurn", false, func(r Run, _ int) error {
			cfg := quickChurnConfig()
			cfg.Run = r
			return errOf(AblationDynAddrChurn(cfg, []time.Duration{10 * time.Second}))
		}},
		{"Strategies", true, func(r Run, n int) error {
			cfg := smallStrategies()
			cfg.Run, cfg.Trials = r, n
			return errOf(Strategies(cfg))
		}},
		{"Recovery", true, func(r Run, n int) error {
			cfg := smallRecovery()
			cfg.Run, cfg.Trials = r, n
			return errOf(Recovery(cfg))
		}},
		{"Dynamics", true, func(r Run, n int) error {
			cfg := smallDynamics()
			cfg.Run, cfg.Trials = r, n
			return errOf(Dynamics(cfg))
		}},
		{"Chaos", true, func(r Run, n int) error {
			cfg := smallChaos()
			cfg.Run, cfg.Trials, cfg.CheckpointEvery = r, n, 0
			return errOf(Chaos(cfg))
		}},
		{"Multihop", true, func(r Run, n int) error {
			cfg := smallMultihop()
			cfg.Run, cfg.Trials = r, n
			return errOf(Multihop(cfg))
		}},
		{"Massive", true, func(r Run, n int) error {
			cfg := massiveTestConfig()
			cfg.Run, cfg.Trials = r, n
			return errOf(Massive(cfg))
		}},
	}
	bad := []struct {
		name   string
		trials bool // the case needs a config with Trials
		edit   func(r *Run, trials *int)
	}{
		{"Duration 0", false, func(r *Run, _ *int) { r.Duration = 0 }},
		{"Parallelism -1", false, func(r *Run, _ *int) { r.Parallelism = -1 }},
		{"Trials 0", true, func(_ *Run, n *int) { *n = 0 }},
	}
	for _, e := range entries {
		for _, b := range bad {
			if b.trials && !e.trials {
				continue
			}
			ran := false
			r := Run{Seed: 1, Duration: time.Second, Hooks: RunHooks{OnTrialTime: func(int, time.Duration) { ran = true }}}
			trials := 1
			b.edit(&r, &trials)
			if err := e.run(r, trials); err == nil {
				t.Errorf("%s with %s: accepted", e.name, b.name)
			}
			if ran {
				t.Errorf("%s with %s: a trial ran before the error", e.name, b.name)
			}
		}
	}
}
