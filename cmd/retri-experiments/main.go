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
	"io"
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
	// set holds the flags given on the command line, which win over a
	// sweep's own sizes and defaults.
	set map[string]bool
	// Chaos knobs for -figure chaos.
	chaosProfiles string
	soak          time.Duration
	// Multihop knobs for -figure multihop.
	multihopArms string
	regions      int
	// The list flags above, parsed once by parseArgs.
	faultList      []experiment.FaultKind
	scenarioList   []experiment.DynScenario
	policyList     []experiment.WidthPolicyKind
	strategyList   []string
	profileList    []chaos.Profile
	populationList []int
	armList        []experiment.MultihopArm
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
	fs.StringVar(&o.figure, "figure", "", "figure to regenerate: "+sweepNames("figure")+" or all")
	fs.StringVar(&o.ablation, "ablation", "", "ablation to run: "+sweepNames("ablation")+" or all")
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
	// List flags are parsed up front, so a typo fails fast even when the
	// sweep that reads it is not the first to run.
	var err error
	if o.faultList, err = experiment.ParseFaultKinds(o.faults); err != nil {
		return options{}, err
	}
	if o.scenarioList, err = experiment.ParseDynScenarios(o.scenarios); err != nil {
		return options{}, err
	}
	if o.policyList, err = experiment.ParseWidthPolicies(o.policies); err != nil {
		return options{}, err
	}
	if o.strategyList, err = experiment.ParseStrategies(o.strategies); err != nil {
		return options{}, err
	}
	if o.profileList, err = chaos.ParseProfiles(o.chaosProfiles); err != nil {
		return options{}, err
	}
	if o.populationList, err = experiment.ParsePopulations(o.nodes); err != nil {
		return options{}, err
	}
	if o.armList, err = experiment.ParseMultihopArms(o.multihopArms); err != nil {
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
	if o.parallel < 0 {
		return options{}, fmt.Errorf("invalid -parallel %d: want 0 for every CPU or a positive count", o.parallel)
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
	if o.figure == "" && o.ablation == "" {
		o.figure, o.ablation = "all", "all"
	}
	// A flag that no selected sweep reads would be silently ignored;
	// reject it instead. fs.Visit walks set flags in name order.
	o.set = make(map[string]bool)
	var unread error
	fs.Visit(func(f *flag.Flag) {
		o.set[f.Name] = true
		var readers []string
		for _, s := range sweeps {
			if slices.Contains(s.flags, f.Name) {
				if s.selected(o) {
					return
				}
				readers = append(readers, "-"+s.kind+" "+s.name)
			}
		}
		if len(readers) > 0 && unread == nil {
			unread = fmt.Errorf("-%s has no effect here: it is read only by %s", f.Name, strings.Join(readers, ", "))
		}
	})
	if unread != nil {
		return options{}, unread
	}
	if o.quick {
		if !o.set["trials"] {
			o.trials = 3
		}
		if !o.set["duration"] {
			o.duration = 20 * time.Second
		}
	}
	if o.parallel == 0 {
		o.parallel = runtime.GOMAXPROCS(0)
	}
	return o, nil
}

// sweep is one -figure or -ablation selection: everything the CLI knows
// about it, so adding a sweep takes one entry in sweeps.
type sweep struct {
	kind  string // "figure" or "ablation"
	name  string
	title string // the banner above the table
	// all marks the sweeps "-figure all" and "-ablation all" run. The
	// recovery, dynamics, chaos, strategies, multihop and massive figures
	// are harnesses beyond the paper's own plots, so they run only when
	// selected explicitly and the historical outputs stay byte-identical.
	all bool
	// flags are the flags the sweep reads, the shared -seed, -trials,
	// -duration and -parallel included; flags every sweep reads, such as
	// -quick and -format, are not listed. A listed flag that no selected
	// sweep reads is rejected.
	flags []string
	// quickTrials and quickDuration, when non-zero, give the sweep sizes
	// of its own: it keeps its config's trials and duration unless the
	// flag is set, and -quick shrinks them to these. At zero the sweep
	// takes -trials and -duration, defaults and -quick's 3 x 20s included.
	quickTrials   int
	quickDuration time.Duration
	// run runs the sweep; s is its own entry, for fill.
	run func(s sweep, o options, col *collector) (result, error)
}

// sweeps is every selection the CLI offers, in the order -h lists them
// and "all" runs them.
var sweeps = []sweep{
	{kind: "figure", name: "1", title: "Figure 1", all: true,
		run: func(sweep, options, *collector) (result, error) { return wrap(experiment.Figure1()) }},
	{kind: "figure", name: "2", title: "Figure 2", all: true,
		run: func(sweep, options, *collector) (result, error) { return wrap(experiment.Figure2()) }},
	{kind: "figure", name: "3", title: "Figure 3", all: true,
		run: func(sweep, options, *collector) (result, error) { return experiment.Figure3(), nil }},
	{kind: "figure", name: "4", title: "Figure 4", all: true,
		flags: []string{"seed", "trials", "duration", "parallel"},
		run: func(s sweep, o options, col *collector) (result, error) {
			return wrap(experiment.Figure4(figure4Config(s, o, col)))
		}},
	{kind: "figure", name: "scaling", title: "Scaling: identifier size vs network size", all: true,
		flags:       []string{"seed", "parallel"},
		quickTrials: 2, quickDuration: 20 * time.Second,
		run: func(s sweep, o options, col *collector) (result, error) {
			cfg := experiment.DefaultScalingConfig()
			s.fill(o, col, &cfg.Run, &cfg.Trials)
			if o.quick {
				cfg.GridSizes = []int{3, 6}
			}
			return wrap(experiment.RunScaling(cfg))
		}},
	{kind: "figure", name: "strategies", title: "Identifier strategies",
		flags: []string{"seed", "trials", "duration", "parallel", "strategies", "span-out", "chrome-trace"},
		run: func(s sweep, o options, col *collector) (result, error) {
			cfg := experiment.DefaultStrategiesConfig()
			s.fill(o, col, &cfg.Run, &cfg.Trials)
			cfg.Obs = col.obs()
			cfg.Strategies = o.strategyList
			return wrap(experiment.Strategies(cfg))
		}},
	{kind: "figure", name: "recovery", title: "Recovery under faults",
		flags: []string{"seed", "trials", "duration", "parallel", "faults", "fault-script", "arq-retries", "arq-rto", "arq-max-rto", "oracle", "span-out", "chrome-trace"},
		run: func(s sweep, o options, col *collector) (result, error) {
			cfg := experiment.DefaultRecoveryConfig()
			s.fill(o, col, &cfg.Run, &cfg.Trials)
			cfg.Obs = col.obs()
			cfg.ARQ.RetryBudget = o.arqRetries
			cfg.ARQ.RTO = o.arqRTO
			cfg.ARQ.MaxRTO = o.arqMaxRTO
			cfg.Oracle = o.oracle
			cfg.Faults = o.faultList
			if o.faultScript != "" {
				script, err := loadScript(o.faultScript, "fault", faults.ParseScript)
				if err != nil {
					return nil, err
				}
				cfg.Script = script
				cfg.Faults = append(cfg.Faults, experiment.FaultScript)
			}
			return wrap(experiment.Recovery(cfg))
		}},
	{kind: "figure", name: "dynamics", title: "Dynamics: identifier sizing under mobility and churn",
		flags: []string{"seed", "trials", "duration", "parallel", "scenarios", "policies", "mobility-script", "oracle", "span-out", "chrome-trace"},
		run: func(s sweep, o options, col *collector) (result, error) {
			cfg := experiment.DefaultDynamicsConfig()
			s.fill(o, col, &cfg.Run, &cfg.Trials)
			cfg.Obs = col.obs()
			cfg.Scenarios = o.scenarioList
			cfg.Policies = o.policyList
			cfg.Oracle = o.oracle
			if o.mobilityScript != "" {
				script, err := loadScript(o.mobilityScript, "mobility", mobility.ParseScript)
				if err != nil {
					return nil, err
				}
				cfg.Script = script
				cfg.Scenarios = append(cfg.Scenarios, experiment.DynScript)
			}
			return wrap(experiment.Dynamics(cfg))
		}},
	{kind: "figure", name: "chaos", title: "Chaos: compound faults and graceful degradation",
		flags: []string{"seed", "trials", "duration", "parallel", "chaos-profiles", "soak", "arq-retries", "arq-rto", "arq-max-rto", "span-out", "chrome-trace"},
		run: func(s sweep, o options, col *collector) (result, error) {
			cfg := experiment.DefaultChaosConfig()
			s.fill(o, col, &cfg.Run, &cfg.Trials)
			cfg.Obs = col.obs()
			cfg.ARQ.RetryBudget = o.arqRetries
			cfg.ARQ.RTO = o.arqRTO
			cfg.ARQ.MaxRTO = o.arqMaxRTO
			cfg.Profiles = o.profileList
			cfg.CheckpointEvery = o.soak
			return wrap(experiment.Chaos(cfg))
		}},
	{kind: "figure", name: "multihop", title: "Multi-hop regional dynamics",
		flags: []string{"seed", "trials", "duration", "parallel", "arms", "regions", "span-out", "chrome-trace"},
		// Each 2-minute multihop trial saturates a 250 kb/s channel.
		quickTrials: 1, quickDuration: 20 * time.Second,
		run: func(s sweep, o options, col *collector) (result, error) {
			cfg := experiment.DefaultMultihopConfig()
			s.fill(o, col, &cfg.Run, &cfg.Trials)
			cfg.Obs = col.obs()
			cfg.Regions = o.regions
			cfg.Arms = o.armList
			return wrap(experiment.Multihop(cfg))
		}},
	{kind: "figure", name: "massive", title: "Massive population: width tracks T, not N",
		flags: []string{"seed", "trials", "duration", "parallel", "nodes", "policies"},
		// A 2-minute million-node trial is no default to run by accident.
		quickTrials: 1, quickDuration: 5 * time.Second,
		run: func(s sweep, o options, col *collector) (result, error) {
			cfg := experiment.DefaultMassiveConfig()
			s.fill(o, col, &cfg.Run, &cfg.Trials)
			// Massive keeps its own population defaults too (a million-node
			// trial is a footgun); an explicit -nodes still wins, and -quick
			// shrinks to a laptop-sized pass.
			if o.set["nodes"] {
				cfg.Populations = o.populationList
			} else if o.quick {
				cfg.Populations = []int{2_000, 20_000}
			}
			// The sharded sensor model has no idle-gap estimator; the plain
			// "adaptive" arm and the default "all" both resolve to the
			// turnover estimator it does implement.
			cfg.Policies = massivePolicies(o.policyList)
			res, err := experiment.Massive(cfg)
			if err != nil {
				return nil, err
			}
			// Wall-clock throughput is real but nondeterministic, so it
			// goes to stderr: stdout stays byte-stable across -parallel.
			fmt.Fprint(os.Stderr, res.PerfNote())
			return res, nil
		}},
	{kind: "ablation", name: "window", title: "Ablation: listening window", all: true,
		flags: []string{"seed", "trials", "duration", "parallel"},
		run: func(s sweep, o options, col *collector) (result, error) {
			return wrap(experiment.AblationListeningWindow(figure4Config(s, o, col), 6, []int{1, 2, 5, 10, 20, 40}))
		}},
	{kind: "ablation", name: "hidden", title: "Ablation: hidden terminals", all: true,
		flags: []string{"seed", "trials", "duration", "parallel"},
		run: func(s sweep, o options, col *collector) (result, error) {
			return wrap(experiment.AblationHiddenTerminal(figure4Config(s, o, col), 5,
				[]experiment.SelectorKind{experiment.SelUniform, experiment.SelListening, experiment.SelListeningNotify}))
		}},
	{kind: "ablation", name: "mac", title: "Ablation: MAC framing overhead", all: true,
		flags: []string{"seed", "duration", "parallel"},
		run: func(s sweep, o options, col *collector) (result, error) {
			cfg := experiment.DefaultEfficiencyConfig(experiment.Scheme{})
			s.fill(o, col, &cfg.Run, nil)
			cfg.PacketSize = 2 // few-bit sensor messages (Section 4.4's regime)
			return wrap(experiment.AblationMACOverhead(cfg,
				[]experiment.Scheme{
					experiment.AFFScheme(9, experiment.SelUniform),
					experiment.StaticScheme(16),
					experiment.StaticScheme(32),
				},
				[]energy.MACProfile{energy.BareProfile(), energy.RPCProfile(), energy.IEEE80211Profile()}))
		}},
	{kind: "ablation", name: "lengths", title: "Ablation: transaction lengths", all: true,
		flags: []string{"seed", "trials", "duration", "parallel"},
		run: func(s sweep, o options, col *collector) (result, error) {
			return wrap(experiment.AblationTransactionLengths(figure4Config(s, o, col), 6, []int{20, 80, 200}))
		}},
	{kind: "ablation", name: "flood", title: "Ablation: flood duplicate-suppression identifiers", all: true,
		flags:       []string{"seed", "parallel"},
		quickTrials: 2, quickDuration: 20 * time.Second,
		run: func(s sweep, o options, col *collector) (result, error) {
			cfg := experiment.DefaultFloodConfig()
			s.fill(o, col, &cfg.Run, &cfg.Trials)
			if o.quick {
				cfg.Grid = 4
			}
			return wrap(experiment.AblationFloodIDBits(cfg))
		}},
	{kind: "ablation", name: "estimator", title: "Ablation: density estimators", all: true,
		flags: []string{"seed", "trials", "duration", "parallel"},
		run: func(s sweep, o options, col *collector) (result, error) {
			return wrap(experiment.AblationEstimator(figure4Config(s, o, col), 6))
		}},
	{kind: "ablation", name: "lifetime", title: "Ablation: energy per useful bit / network lifetime", all: true,
		flags:         []string{"seed", "parallel"},
		quickDuration: 15 * time.Second,
		run: func(s sweep, o options, col *collector) (result, error) {
			cfg := experiment.DefaultEfficiencyConfig(experiment.Scheme{})
			s.fill(o, col, &cfg.Run, nil)
			return wrap(experiment.RunLifetime(cfg, experiment.DefaultLifetimeSchemes()))
		}},
	{kind: "ablation", name: "churn", title: "Ablation: dynamic allocation under churn", all: true,
		flags:         []string{"seed", "parallel"},
		quickDuration: time.Minute,
		run: func(s sweep, o options, col *collector) (result, error) {
			cfg := experiment.DefaultChurnConfig()
			s.fill(o, col, &cfg.Run, nil)
			return wrap(experiment.AblationDynAddrChurn(cfg,
				[]time.Duration{10 * time.Second, 30 * time.Second, 2 * time.Minute}))
		}},
}

// result is anything a sweep produces: a human table and a CSV. Every
// sweep's result implements both, so -format csv is honored uniformly. A
// result that also has a Check() error method is audited: the run prints
// it, then fails when the check does.
type result interface {
	Render() string
	CSV() string
}

// wrap widens a sweep's concrete result to a result.
func wrap[R result](res R, err error) (result, error) { return res, err }

// figure4Config is the command line's Figure 4 config, which the figure
// and the window, hidden, lengths and estimator ablations share.
func figure4Config(s sweep, o options, col *collector) experiment.Figure4Config {
	cfg := experiment.DefaultFigure4Config()
	s.fill(o, col, &cfg.Run, &cfg.Trials)
	cfg.Obs = col.obs()
	return cfg
}

// fill is the one place a sweep config takes the shared flags. r and
// *trials (nil for a config without trials) come in holding the config's
// own defaults. Seed and Parallelism take the flags the sweep reads.
// Duration and trials take the flag when the sweep reads it and either
// it was set or the sweep has no size of its own; otherwise the sweep's
// own size under -quick, or else the config's. Every sweep gets the
// collector's hooks.
func (s sweep) fill(o options, col *collector, r *experiment.Run, trials *int) {
	if slices.Contains(s.flags, "seed") {
		r.Seed = o.seed
	}
	if slices.Contains(s.flags, "parallel") {
		r.Parallelism = o.parallel
	}
	r.Duration = pick(s, o, "duration", o.duration, s.quickDuration, r.Duration)
	if trials != nil {
		*trials = pick(s, o, "trials", o.trials, s.quickTrials, *trials)
	}
	r.Hooks = col.hooks()
}

// pick resolves a duration or trial count as fill describes: v is the
// flag's value, quick the sweep's own -quick size (zero for none) and
// def the config's default.
func pick[T comparable](s sweep, o options, flag string, v, quick, def T) T {
	var zero T
	switch {
	case slices.Contains(s.flags, flag) && (o.set[flag] || quick == zero):
		return v
	case o.quick && quick != zero:
		return quick
	}
	return def
}

// selected reports whether the -figure or -ablation selection runs s.
func (s sweep) selected(o options) bool {
	sel := o.figure
	if s.kind == "ablation" {
		sel = o.ablation
	}
	return sel == s.name || sel == "all" && s.all
}

// sweepNames lists the sweeps of one kind for -h, in table order.
func sweepNames(kind string) string {
	var names []string
	for _, s := range sweeps {
		if s.kind == kind {
			names = append(names, s.name)
		}
	}
	return strings.Join(names, ", ")
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
	runErr := runSelected("figure", o.figure, o, col)
	if runErr == nil {
		runErr = runSelected("ablation", o.ablation, o, col)
	}
	if err := col.close(); err != nil && runErr == nil {
		runErr = err
	}
	return runErr
}

// runSelected runs, in table order, each sweep of one kind that the
// selection sel names, and fails on a non-empty sel that names none. Each
// sweep runs inside its manifest record and prints its result in the
// selected format; an audited result whose Check fails stops the run
// after its table is printed.
func runSelected(kind, sel string, o options, col *collector) error {
	if sel == "" {
		return nil
	}
	ran := false
	for _, s := range sweeps {
		if s.kind != kind || !s.selected(o) {
			continue
		}
		ran = true
		col.begin(kind + "-" + s.name)
		res, err := s.run(s, o, col)
		if err == nil {
			if o.format == "csv" {
				fmt.Print(res.CSV())
			} else {
				fmt.Println("=== " + s.title + " ===")
				fmt.Println(res.Render())
			}
			if c, ok := res.(interface{ Check() error }); ok {
				err = c.Check()
			}
		}
		col.end()
		if err != nil {
			return err
		}
	}
	if !ran {
		return fmt.Errorf("unknown selection %q", sel)
	}
	return nil
}

// massivePolicies maps the -policies selection onto the arms the sharded
// sensor model implements: "adaptive" folds into "adaptive-turnover" (the
// model's only estimator), duplicates collapse, order is preserved.
func massivePolicies(in []experiment.WidthPolicyKind) []experiment.WidthPolicyKind {
	var out []experiment.WidthPolicyKind
	for _, p := range in {
		if p == experiment.WidthAdaptive {
			p = experiment.WidthAdaptiveTurnover
		}
		if !slices.Contains(out, p) {
			out = append(out, p)
		}
	}
	return out
}

// loadScript parses a fault or mobility schedule file, wrapping parse
// errors (which carry line numbers) with the file name.
func loadScript[S any](path, kind string, parse func(io.Reader) (S, error)) (*S, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("%s script: %w", kind, err)
	}
	defer f.Close()
	s, err := parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
