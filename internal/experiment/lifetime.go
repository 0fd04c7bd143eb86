package experiment

import (
	"fmt"
	"strings"
	"time"

	"retri/internal/energy"
	"retri/internal/xrand"
)

// LifetimeResult translates measured efficiency into the quantity the
// paper actually argues about: network lifetime. "Every bit transmitted
// reduces the lifetime of the network" (Section 2.3), so at a fixed
// application-level delivery requirement the network's life extends in
// proportion to the energy each scheme spends per useful bit.
type LifetimeResult struct {
	Config EfficiencyConfig
	// Rows, one per scheme, in the order given.
	Rows []LifetimeRow
	// Baseline indexes the scheme all lifetime factors are relative to.
	Baseline int
}

// LifetimeRow is one scheme's energy accounting.
type LifetimeRow struct {
	Scheme Scheme
	// JoulesPerUsefulKbit is network-wide radio energy divided by useful
	// bits delivered at the sink, scaled to kilobits.
	JoulesPerUsefulKbit float64
	// LifetimeFactor is the baseline's Joules-per-useful-bit divided by
	// this scheme's: >1 means the scheme outlives the baseline at equal
	// delivered data.
	LifetimeFactor float64
	// E is the measured Equation 1 efficiency, for cross-reference.
	E float64
}

// RunLifetime measures Joules per useful bit for each scheme under the
// same workload, normalizing lifetimes against the last scheme in the
// list (conventionally the widest static baseline).
func RunLifetime(base EfficiencyConfig, schemes []Scheme) (LifetimeResult, error) {
	if len(schemes) < 2 {
		return LifetimeResult{}, fmt.Errorf("experiment: lifetime comparison needs >= 2 schemes")
	}
	res := LifetimeResult{Config: base, Baseline: len(schemes) - 1}
	src := xrand.NewSource(base.Seed).Child("lifetime")
	costs := make([]float64, len(schemes))
	outs, err := runTrials(fanout{parallelism: base.Parallelism, hooks: base.Hooks}, len(schemes), func(i int) (EfficiencyOutcome, error) {
		cfg := base
		cfg.Scheme = schemes[i]
		return RunEfficiencyTrial(cfg, src.Child(schemes[i].Label()))
	}, nil, nil)
	if err != nil {
		return LifetimeResult{}, err
	}
	for i, out := range outs {
		s := schemes[i]
		if out.UsefulBits == 0 {
			return LifetimeResult{}, fmt.Errorf("experiment: scheme %s delivered nothing", s.Label())
		}
		costs[i] = out.Joules / float64(out.UsefulBits)
		res.Rows = append(res.Rows, LifetimeRow{
			Scheme:              s,
			JoulesPerUsefulKbit: costs[i] * 1000,
			E:                   out.E(),
		})
	}
	baseCost := costs[res.Baseline]
	for i := range res.Rows {
		res.Rows[i].LifetimeFactor = baseCost / costs[i]
	}
	return res, nil
}

// DefaultLifetimeSchemes is the paper's comparison set.
func DefaultLifetimeSchemes() []Scheme {
	return []Scheme{
		AFFScheme(9, SelUniform),
		AFFScheme(9, SelListening),
		StaticScheme(16),
		StaticScheme(32),
	}
}

// Render renders the lifetime comparison.
func (r LifetimeResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Energy per useful bit and relative network lifetime (%d senders, %dB packets, %v)\n",
		r.Config.Transmitters, r.Config.PacketSize, r.Config.Duration)
	fmt.Fprintf(&b, "%-24s %18s %12s %10s\n", "scheme", "J/useful kbit", "lifetime x", "E (Eq.1)")
	for i, row := range r.Rows {
		mark := ""
		if i == r.Baseline {
			mark = "  (baseline)"
		}
		fmt.Fprintf(&b, "%-24s %18.6f %12.3f %10.4f%s\n",
			row.Scheme.Label(), row.JoulesPerUsefulKbit, row.LifetimeFactor, row.E, mark)
	}
	return b.String()
}

// quickLifetimeConfig builds the standard workload for the comparison.
func quickLifetimeConfig(seed uint64, d time.Duration) EfficiencyConfig {
	cfg := DefaultEfficiencyConfig(Scheme{})
	cfg.Seed = seed
	cfg.Duration = d
	cfg.MAC = energy.RPCProfile()
	return cfg
}

// DefaultLifetimeConfig is the full-size run used by the harness.
func DefaultLifetimeConfig(seed uint64) EfficiencyConfig {
	return quickLifetimeConfig(seed, time.Minute)
}
