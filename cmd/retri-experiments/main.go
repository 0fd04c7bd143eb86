// Command retri-experiments regenerates the data behind every figure in
// the paper's evaluation (Figures 1-4) plus the ablations catalogued in
// DESIGN.md.
//
// Usage:
//
//	retri-experiments -figure all
//	retri-experiments -figure 4 -trials 10 -duration 2m
//	retri-experiments -figure 4 -parallel 0      # trials across all CPUs
//	retri-experiments -ablation mac
//	retri-experiments -ablation all -quick
//	retri-experiments -figure recovery -faults ge,crash -arq-retries 8
//	retri-experiments -figure recovery -fault-script sched.txt
//	retri-experiments -figure dynamics -scenarios waypoint,churn
//	retri-experiments -figure dynamics -mobility-script moves.txt
//	retri-experiments -figure chaos -chaos-profiles storm,cascade
//	retri-experiments -figure chaos -soak 10s -duration 10m
//	retri-experiments -figure multihop -regions 4
//	retri-experiments -figure multihop -arms fixed,dynaddr -quick
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"retri/internal/chaos"
	"retri/internal/energy"
	"retri/internal/experiment"
	"retri/internal/faults"
	"retri/internal/mobility"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "retri-experiments:", err)
		os.Exit(1)
	}
}

// options is the parsed, validated command line.
type options struct {
	figure   string
	ablation string
	trials   int
	duration time.Duration
	seed     uint64
	quick    bool
	format   string
	parallel int
	// Fault-injection knobs for -figure recovery.
	faults      string
	faultScript string
	arqRetries  int
	arqRTO      time.Duration
	arqMaxRTO   time.Duration
	// Dynamics knobs for -figure dynamics.
	scenarios      string
	policies       string
	oracle         bool
	mobilityScript string
	// Strategy list for -figure strategies.
	strategies string
	// Massive-population knobs for -figure massive.
	nodes string
	// trialsSet/durationSet/nodesSet record whether the user set the flag
	// (or -quick resolved it): -figure massive keeps its own scale
	// defaults — a 2-minute million-node trial is not a default anyone
	// wants by accident — unless overridden explicitly.
	trialsSet   bool
	durationSet bool
	nodesSet    bool
	// Chaos knobs for -figure chaos.
	chaosProfiles string
	soak          time.Duration
	// Multihop knobs for -figure multihop.
	multihopArms string
	regions      int
	// Observability outputs. All of them write to side files or stderr;
	// stdout is byte-identical with or without them.
	traceOut    string
	metricsOut  string
	spanOut     string
	chromeTrace string
	progress    bool
	cpuprofile  string
	memprofile  string
}

// newFlagSet registers every command-line flag on a fresh set, each bound
// to its field of o.
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("retri-experiments", flag.ContinueOnError)
	fs.StringVar(&o.figure, "figure", "", "figure to regenerate: 1, 2, 3, 4, scaling, strategies, recovery, dynamics, chaos, multihop, massive or all")
	fs.StringVar(&o.ablation, "ablation", "", "ablation to run: window, hidden, mac, lengths, flood, estimator, lifetime, churn or all")
	fs.IntVar(&o.trials, "trials", 10, "trials per configuration (figures 4, recovery, dynamics, chaos, strategies, multihop and massive; ablations window, hidden, lengths and estimator)")
	fs.DurationVar(&o.duration, "duration", 2*time.Minute, "simulated time per trial")
	fs.Uint64Var(&o.seed, "seed", 1, "master random seed")
	fs.BoolVar(&o.quick, "quick", false, "shrink trials/duration for a fast pass")
	fs.StringVar(&o.format, "format", "table", "output format for figures: table or csv")
	fs.IntVar(&o.parallel, "parallel", 1, "concurrent trials per experiment; 0 uses all CPUs, 1 is sequential; for -figure massive, the shard worker count inside each trial")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the radio event stream as JSON Lines to this file")
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write a JSON run manifest and metrics snapshot to this file")
	fs.StringVar(&o.spanOut, "span-out", "", "write per-transaction lifecycle spans as JSON Lines to this file (query with retri-trace)")
	fs.StringVar(&o.chromeTrace, "chrome-trace", "", "write transaction spans as Chrome trace_event JSON (open in chrome://tracing or Perfetto)")
	fs.BoolVar(&o.progress, "progress", false, "report per-trial progress on stderr")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a pprof heap profile to this file")
	fs.StringVar(&o.faults, "faults", "all", "fault models for -figure recovery: comma list of none, iid, ge, crash, flap, corrupt, ge+crash; or all")
	fs.StringVar(&o.faultScript, "fault-script", "", "fault schedule file for -figure recovery (adds the script fault model)")
	fs.IntVar(&o.arqRetries, "arq-retries", 8, "ARQ retry budget per packet (-figure recovery)")
	fs.DurationVar(&o.arqRTO, "arq-rto", 250*time.Millisecond, "ARQ initial retransmission timeout (-figure recovery)")
	fs.DurationVar(&o.arqMaxRTO, "arq-max-rto", 8*time.Second, "ARQ backoff cap (-figure recovery)")
	fs.StringVar(&o.scenarios, "scenarios", "all", "dynamics scenarios for -figure dynamics: comma list of stationary, waypoint, churn, group; or all")
	fs.StringVar(&o.policies, "policies", "all", "width policies for -figure dynamics: comma list of fixed, adaptive, adaptive-turnover; or all")
	fs.BoolVar(&o.oracle, "oracle", false, "attach the omniscient conformance oracle to -figure dynamics and recovery trials (strategies always audits)")
	fs.StringVar(&o.mobilityScript, "mobility-script", "", "mobility schedule file for -figure dynamics (adds the script scenario)")
	fs.StringVar(&o.strategies, "strategies", "all", "identifier strategies for -figure strategies: comma list of uniform, listening, sequential, permutation, perdest, timeprefix; or all")
	fs.StringVar(&o.nodes, "nodes", "10000,100000,1000000", "population sizes for -figure massive, comma-separated")
	fs.StringVar(&o.chaosProfiles, "chaos-profiles", "all", "compound-fault profiles for -figure chaos: comma list of calm, storm, cascade; or all")
	fs.DurationVar(&o.soak, "soak", 0, "soak mode for -figure chaos: audit oracle invariants at this interval inside every trial (0 disables)")
	fs.StringVar(&o.multihopArms, "arms", "all", "protocol arms for -figure multihop: comma list of fixed, adaptive-turnover, dynaddr; or all")
	fs.IntVar(&o.regions, "regions", 3, "per-region width table grid for -figure multihop: the field splits into regions x regions cells")
	return fs
}

// parseArgs parses and validates flags. Quick-mode defaults apply only to
// flags the user did not set explicitly (fs.Visit covers exactly the set
// flags), so `-quick -trials 5` keeps the user's 5 trials.
func parseArgs(args []string) (options, error) {
	var o options
	fs := newFlagSet(&o)
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	// Fault flags are validated up front so a typo fails fast even when the
	// recovery figure is not the first thing to run.
	if _, err := experiment.ParseFaultKinds(o.faults); err != nil {
		return options{}, err
	}
	if _, err := experiment.ParseDynScenarios(o.scenarios); err != nil {
		return options{}, err
	}
	if _, err := experiment.ParseWidthPolicies(o.policies); err != nil {
		return options{}, err
	}
	if _, err := experiment.ParseStrategies(o.strategies); err != nil {
		return options{}, err
	}
	if _, err := chaos.ParseProfiles(o.chaosProfiles); err != nil {
		return options{}, err
	}
	if _, err := experiment.ParsePopulations(o.nodes); err != nil {
		return options{}, err
	}
	if _, err := experiment.ParseMultihopArms(o.multihopArms); err != nil {
		return options{}, err
	}
	if o.regions < 1 || o.regions > 16 {
		return options{}, fmt.Errorf("invalid -regions %d: want a grid side in [1, 16]", o.regions)
	}
	if o.soak < 0 {
		return options{}, fmt.Errorf("invalid -soak %v: must be non-negative", o.soak)
	}
	if o.trials < 1 {
		return options{}, fmt.Errorf("invalid -trials %d: want at least 1", o.trials)
	}
	if o.duration <= 0 {
		return options{}, fmt.Errorf("invalid -duration %v: must be positive", o.duration)
	}
	if o.arqRetries < 0 {
		return options{}, fmt.Errorf("invalid -arq-retries %d: must be non-negative", o.arqRetries)
	}
	if o.arqRTO <= 0 || o.arqMaxRTO < o.arqRTO {
		return options{}, fmt.Errorf("invalid ARQ timeouts: want 0 < -arq-rto <= -arq-max-rto, got %v/%v", o.arqRTO, o.arqMaxRTO)
	}
	switch o.format {
	case "table", "csv":
	default:
		return options{}, fmt.Errorf("invalid -format %q: accepted values are table, csv", o.format)
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if o.quick {
		if !set["trials"] {
			o.trials = 3
		}
		if !set["duration"] {
			o.duration = 20 * time.Second
		}
	}
	o.trialsSet = set["trials"]
	o.durationSet = set["duration"]
	o.nodesSet = set["nodes"]
	if o.parallel <= 0 {
		o.parallel = runtime.GOMAXPROCS(0)
	}
	if o.figure == "" && o.ablation == "" {
		o.figure, o.ablation = "all", "all"
	}
	// A per-figure flag that no selected figure reads would be silently
	// ignored; reject it instead. fs.Visit walks set flags in name order.
	selected := []string{o.figure}
	if o.figure == "all" {
		selected = allFigures
	}
	var unread error
	fs.Visit(func(f *flag.Flag) {
		readers, ok := figureFlags[f.Name]
		if !ok || unread != nil {
			return
		}
		for _, fig := range selected {
			if slices.Contains(readers, fig) {
				return
			}
		}
		unread = fmt.Errorf("-%s has no effect here: it is read only by -figure %s", f.Name, strings.Join(readers, ", "))
	})
	if unread != nil {
		return options{}, unread
	}
	return o, nil
}

// allFigures is what -figure all runs. The recovery, dynamics, chaos,
// strategies, multihop and massive figures are harnesses beyond the
// paper's own plots, so they run only when selected explicitly and the
// historical outputs stay byte-identical.
var allFigures = []string{"1", "2", "3", "4", "scaling"}

// figureFlags maps each per-figure flag to the figures that read it.
var figureFlags = map[string][]string{
	"faults":          {"recovery"},
	"fault-script":    {"recovery"},
	"arq-retries":     {"recovery", "chaos"},
	"arq-rto":         {"recovery", "chaos"},
	"arq-max-rto":     {"recovery", "chaos"},
	"oracle":          {"dynamics", "recovery"},
	"span-out":        {"dynamics", "recovery", "strategies", "chaos", "multihop"},
	"chrome-trace":    {"dynamics", "recovery", "strategies", "chaos", "multihop"},
	"scenarios":       {"dynamics"},
	"policies":        {"dynamics", "massive"},
	"mobility-script": {"dynamics"},
	"strategies":      {"strategies"},
	"nodes":           {"massive"},
	"chaos-profiles":  {"chaos"},
	"soak":            {"chaos"},
	"arms":            {"multihop"},
	"regions":         {"multihop"},
}

// result is anything an experiment produces: a human table and a CSV.
// Every figure and ablation result implements both, so -format csv is
// honored uniformly.
type result interface {
	Render() string
	CSV() string
}

// emit prints a result to stdout in the selected format.
func emit(title string, useCSV bool, r result) {
	if useCSV {
		fmt.Print(r.CSV())
		return
	}
	fmt.Println("=== " + title + " ===")
	fmt.Println(r.Render())
}

func run(args []string) error {
	o, err := parseArgs(args)
	if err != nil {
		return err
	}
	col, err := newCollector(o, args)
	if err != nil {
		return err
	}

	base := experiment.DefaultFigure4Config()
	base.Seed = o.seed
	base.Trials = o.trials
	base.Duration = o.duration
	base.Parallelism = o.parallel
	base.Obs = col.obs()
	base.Hooks = col.hooks()

	useCSV := o.format == "csv"
	figures := map[string]func() error{
		"1": func() error { return printEfficiencyFigure(1, useCSV) },
		"2": func() error { return printEfficiencyFigure(2, useCSV) },
		"3": func() error {
			emit("Figure 3", useCSV, experiment.Figure3())
			return nil
		},
		"4": func() error {
			res, err := experiment.Figure4(base)
			if err != nil {
				return err
			}
			emit("Figure 4", useCSV, res)
			return nil
		},
		"recovery": func() error {
			cfg := experiment.DefaultRecoveryConfig()
			cfg.Seed = o.seed
			cfg.Trials = o.trials
			cfg.Duration = o.duration
			cfg.Parallelism = o.parallel
			cfg.Obs = col.obs()
			cfg.Hooks = col.hooks()
			cfg.ARQ.RetryBudget = o.arqRetries
			cfg.ARQ.RTO = o.arqRTO
			cfg.ARQ.MaxRTO = o.arqMaxRTO
			cfg.Oracle = o.oracle
			kinds, err := experiment.ParseFaultKinds(o.faults)
			if err != nil {
				return err
			}
			cfg.Faults = kinds
			if o.faultScript != "" {
				script, err := loadFaultScript(o.faultScript)
				if err != nil {
					return err
				}
				cfg.Script = script
				cfg.Faults = append(cfg.Faults, experiment.FaultScript)
			}
			res, err := experiment.Recovery(cfg)
			if err != nil {
				return err
			}
			emit("Recovery under faults", useCSV, res)
			return nil
		},
		"dynamics": func() error {
			cfg := experiment.DefaultDynamicsConfig()
			cfg.Seed = o.seed
			cfg.Trials = o.trials
			cfg.Duration = o.duration
			cfg.Parallelism = o.parallel
			cfg.Obs = col.obs()
			cfg.Hooks = col.hooks()
			scenarios, err := experiment.ParseDynScenarios(o.scenarios)
			if err != nil {
				return err
			}
			cfg.Scenarios = scenarios
			policies, err := experiment.ParseWidthPolicies(o.policies)
			if err != nil {
				return err
			}
			cfg.Policies = policies
			cfg.Oracle = o.oracle
			if o.mobilityScript != "" {
				script, err := loadMobilityScript(o.mobilityScript)
				if err != nil {
					return err
				}
				cfg.Script = script
				cfg.Scenarios = append(cfg.Scenarios, experiment.DynScript)
			}
			res, err := experiment.Dynamics(cfg)
			if err != nil {
				return err
			}
			emit("Dynamics: identifier sizing under mobility and churn", useCSV, res)
			return nil
		},
		"chaos": func() error {
			cfg := experiment.DefaultChaosConfig()
			cfg.Seed = o.seed
			cfg.Trials = o.trials
			cfg.Duration = o.duration
			cfg.Parallelism = o.parallel
			cfg.Obs = col.obs()
			cfg.Hooks = col.hooks()
			cfg.ARQ.RetryBudget = o.arqRetries
			cfg.ARQ.RTO = o.arqRTO
			cfg.ARQ.MaxRTO = o.arqMaxRTO
			profiles, err := chaos.ParseProfiles(o.chaosProfiles)
			if err != nil {
				return err
			}
			cfg.Profiles = profiles
			cfg.CheckpointEvery = o.soak
			res, err := experiment.Chaos(cfg)
			if err != nil {
				return err
			}
			emit("Chaos: compound faults and graceful degradation", useCSV, res)
			// The always-on audit is a gate, not a column: any safety
			// violation in any cell fails the run so CI catches it.
			for _, r := range res.Rows {
				if r.Oracle == nil {
					return fmt.Errorf("chaos %s: no oracle report attached", r.Label())
				}
				if err := r.Oracle.Check(); err != nil {
					return fmt.Errorf("chaos %s: %w", r.Label(), err)
				}
				if r.SoakViolations > 0 {
					return fmt.Errorf("chaos %s: %d soak checkpoint violations (first: %s)",
						r.Label(), r.SoakViolations, r.FirstViolation)
				}
			}
			return nil
		},
		"multihop": func() error {
			cfg := experiment.DefaultMultihopConfig()
			cfg.Seed = o.seed
			cfg.Parallelism = o.parallel
			cfg.Obs = col.obs()
			cfg.Hooks = col.hooks()
			cfg.Regions = o.regions
			// Multihop keeps its own trial count (each 2-minute trial
			// saturates a 250 kb/s channel); explicit flags still win, and
			// -quick shrinks to a smoke-sized pass.
			if o.trialsSet {
				cfg.Trials = o.trials
			}
			if o.durationSet || o.quick {
				cfg.Duration = o.duration
			}
			if o.quick && !o.trialsSet {
				cfg.Trials = 1
			}
			arms, err := experiment.ParseMultihopArms(o.multihopArms)
			if err != nil {
				return err
			}
			cfg.Arms = arms
			res, err := experiment.Multihop(cfg)
			if err != nil {
				return err
			}
			emit("Multi-hop regional dynamics", useCSV, res)
			// The oracle rides every AFF trial; any wire-format violation
			// fails the run so CI catches it.
			for _, r := range res.Rows {
				if r.Arm == experiment.MultihopDynaddr {
					continue
				}
				if r.Oracle == nil {
					return fmt.Errorf("multihop %s: no oracle report attached", r.Arm)
				}
				if err := r.Oracle.Check(); err != nil {
					return fmt.Errorf("multihop %s: %w", r.Arm, err)
				}
			}
			return nil
		},
		"massive": func() error {
			cfg := experiment.DefaultMassiveConfig()
			cfg.Seed = o.seed
			cfg.Parallelism = o.parallel
			cfg.Hooks = col.hooks()
			// Massive keeps its own scale defaults (a million-node trial
			// at the generic 2-minute default is a footgun); explicit
			// flags still win, and -quick shrinks to a laptop-sized pass.
			if o.trialsSet {
				cfg.Trials = o.trials
			}
			if o.durationSet {
				cfg.Duration = o.duration
			} else if o.quick {
				cfg.Duration = 5 * time.Second
			}
			if o.nodesSet || o.quick {
				pops, err := experiment.ParsePopulations(o.nodes)
				if err != nil {
					return err
				}
				if o.nodesSet {
					cfg.Populations = pops
				} else {
					cfg.Populations = []int{2_000, 20_000}
				}
			}
			policies, err := experiment.ParseWidthPolicies(o.policies)
			if err != nil {
				return err
			}
			// The sharded sensor model has no idle-gap estimator; the plain
			// "adaptive" arm and the default "all" both resolve to the
			// turnover estimator it does implement.
			cfg.Policies = massivePolicies(policies)
			res, err := experiment.Massive(cfg)
			if err != nil {
				return err
			}
			emit("Massive population: width tracks T, not N", useCSV, res)
			// Wall-clock throughput is real but nondeterministic, so it
			// goes to stderr: stdout stays byte-stable across -parallel.
			fmt.Fprint(os.Stderr, res.PerfNote())
			return res.Check()
		},
		"strategies": func() error {
			cfg := experiment.DefaultStrategiesConfig()
			cfg.Seed = o.seed
			cfg.Trials = o.trials
			cfg.Duration = o.duration
			cfg.Parallelism = o.parallel
			cfg.Obs = col.obs()
			cfg.Hooks = col.hooks()
			names, err := experiment.ParseStrategies(o.strategies)
			if err != nil {
				return err
			}
			cfg.Strategies = names
			res, err := experiment.Strategies(cfg)
			if err != nil {
				return err
			}
			emit("Identifier strategies", useCSV, res)
			return nil
		},
		"scaling": func() error {
			cfg := experiment.DefaultScalingConfig()
			cfg.Seed = o.seed
			cfg.Parallelism = o.parallel
			cfg.Hooks = col.hooks()
			if o.quick {
				cfg.GridSizes = []int{3, 6}
				cfg.Duration = 20 * time.Second
				cfg.Trials = 2
			}
			res, err := experiment.RunScaling(cfg)
			if err != nil {
				return err
			}
			emit("Scaling: identifier size vs network size", useCSV, res)
			return nil
		},
	}
	ablations := map[string]func() error{
		"window": func() error {
			res, err := experiment.AblationListeningWindow(base, 6, []int{1, 2, 5, 10, 20, 40})
			if err != nil {
				return err
			}
			emit("Ablation: listening window", useCSV, res)
			return nil
		},
		"hidden": func() error {
			res, err := experiment.AblationHiddenTerminal(base, 5,
				[]experiment.SelectorKind{experiment.SelUniform, experiment.SelListening, experiment.SelListeningNotify})
			if err != nil {
				return err
			}
			emit("Ablation: hidden terminals", useCSV, res)
			return nil
		},
		"mac": func() error {
			cfg := experiment.DefaultEfficiencyConfig(experiment.Scheme{})
			cfg.Seed = o.seed
			cfg.Duration = o.duration
			cfg.Parallelism = o.parallel
			cfg.Hooks = col.hooks()
			cfg.PacketSize = 2 // few-bit sensor messages (Section 4.4's regime)
			res, err := experiment.AblationMACOverhead(cfg,
				[]experiment.Scheme{
					experiment.AFFScheme(9, experiment.SelUniform),
					experiment.StaticScheme(16),
					experiment.StaticScheme(32),
				},
				[]energy.MACProfile{energy.BareProfile(), energy.RPCProfile(), energy.IEEE80211Profile()})
			if err != nil {
				return err
			}
			emit("Ablation: MAC framing overhead", useCSV, res)
			return nil
		},
		"lengths": func() error {
			res, err := experiment.AblationTransactionLengths(base, 6, []int{20, 80, 200})
			if err != nil {
				return err
			}
			emit("Ablation: transaction lengths", useCSV, res)
			return nil
		},
		"flood": func() error {
			cfg := experiment.DefaultFloodConfig()
			cfg.Seed = o.seed
			cfg.Parallelism = o.parallel
			cfg.Hooks = col.hooks()
			if o.quick {
				cfg.Grid = 4
				cfg.Duration = 20 * time.Second
				cfg.Trials = 2
			}
			res, err := experiment.AblationFloodIDBits(cfg)
			if err != nil {
				return err
			}
			emit("Ablation: flood duplicate-suppression identifiers", useCSV, res)
			return nil
		},
		"estimator": func() error {
			res, err := experiment.AblationEstimator(base, 6)
			if err != nil {
				return err
			}
			emit("Ablation: density estimators", useCSV, res)
			return nil
		},
		"lifetime": func() error {
			cfg := experiment.DefaultLifetimeConfig(o.seed)
			cfg.Parallelism = o.parallel
			cfg.Hooks = col.hooks()
			if o.quick {
				cfg.Duration = 15 * time.Second
			}
			res, err := experiment.RunLifetime(cfg, experiment.DefaultLifetimeSchemes())
			if err != nil {
				return err
			}
			emit("Ablation: energy per useful bit / network lifetime", useCSV, res)
			return nil
		},
		"churn": func() error {
			cfg := experiment.DefaultChurnConfig()
			cfg.Seed = o.seed
			cfg.Parallelism = o.parallel
			cfg.Hooks = col.hooks()
			if o.quick {
				cfg.Duration = time.Minute
			}
			res, err := experiment.AblationDynAddrChurn(cfg,
				[]time.Duration{10 * time.Second, 30 * time.Second, 2 * time.Minute})
			if err != nil {
				return err
			}
			emit("Ablation: dynamic allocation under churn", useCSV, res)
			return nil
		},
	}

	runSet := func(sel, prefix string, m map[string]func() error, order []string) error {
		invoke := func(k string) error {
			col.begin(prefix + k)
			defer col.end()
			return m[k]()
		}
		if sel == "" {
			return nil
		}
		if sel == "all" {
			for _, k := range order {
				if err := invoke(k); err != nil {
					return err
				}
			}
			return nil
		}
		if _, ok := m[sel]; !ok {
			return fmt.Errorf("unknown selection %q", sel)
		}
		return invoke(sel)
	}

	runErr := runSet(o.figure, "figure-", figures, allFigures)
	if runErr == nil {
		runErr = runSet(o.ablation, "ablation-", ablations, []string{"window", "hidden", "mac", "lengths", "flood", "estimator", "lifetime", "churn"})
	}
	if err := col.close(); err != nil && runErr == nil {
		runErr = err
	}
	return runErr
}

// massivePolicies maps the -policies selection onto the arms the sharded
// sensor model implements: "adaptive" folds into "adaptive-turnover" (the
// model's only estimator), duplicates collapse, order is preserved.
func massivePolicies(in []experiment.WidthPolicyKind) []experiment.WidthPolicyKind {
	var out []experiment.WidthPolicyKind
	seen := make(map[experiment.WidthPolicyKind]bool)
	for _, p := range in {
		if p == experiment.WidthAdaptive {
			p = experiment.WidthAdaptiveTurnover
		}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// loadFaultScript parses a fault schedule file, wrapping parse errors
// (which carry line numbers) with the file name.
func loadFaultScript(path string) (*faults.Script, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("fault script: %w", err)
	}
	defer f.Close()
	s, err := faults.ParseScript(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadMobilityScript parses a mobility schedule file, wrapping parse
// errors (which carry line numbers) with the file name.
func loadMobilityScript(path string) (*mobility.Script, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("mobility script: %w", err)
	}
	defer f.Close()
	s, err := mobility.ParseScript(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func printEfficiencyFigure(n int, useCSV bool) error {
	var (
		fig experiment.EfficiencyFigure
		err error
	)
	if n == 1 {
		fig, err = experiment.Figure1()
	} else {
		fig, err = experiment.Figure2()
	}
	if err != nil {
		return err
	}
	emit(fmt.Sprintf("Figure %d", n), useCSV, fig)
	return nil
}
