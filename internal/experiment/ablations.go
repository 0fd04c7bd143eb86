package experiment

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"retri/internal/energy"
	"retri/internal/model"
	"retri/internal/radio"
	"retri/internal/stats"
	"retri/internal/xrand"
)

// --- Listening-window ablation (Section 3.2 / 5.1) ---

// WindowAblationResult reports collision rate against listening-window
// size, with the adaptive 2T rule included as window 0.
type WindowAblationResult struct {
	Config  Figure4Config
	Windows []int
	Series  *stats.Series
	// Adaptive is the 2T-rule result for comparison.
	Adaptive stats.Summary
}

// AblationListeningWindow measures how the listening window's size trades
// off against collision rate at a fixed identifier width. Window 0 in
// Windows is replaced by the adaptive 2T rule.
func AblationListeningWindow(cfg Figure4Config, idBits int, windows []int) (WindowAblationResult, error) {
	if err := cfg.Validate(); err != nil {
		return WindowAblationResult{}, err
	}
	res := WindowAblationResult{Config: cfg, Windows: windows, Series: stats.NewSeries("window")}
	type cell struct {
		window   int
		adaptive bool
	}
	var cells []cell
	for _, w := range windows {
		cells = append(cells, cell{window: w})
	}
	cells = append(cells, cell{adaptive: true})
	groups, err := runCells(cfg.Run, cfg.Obs, "ablation-window", cells, cfg.Trials,
		func(c cell) []string {
			if c.adaptive {
				return []string{"adaptive"}
			}
			return []string{strconv.Itoa(c.window)}
		},
		func(c cell, src *xrand.Source) (TrialOutcome, error) {
			run := cfg
			if !c.adaptive {
				run.FixedWindow = c.window
			}
			return RunCollisionTrial(run, SelListening, idBits, src)
		},
		TrialOutcome.capture,
		func(c cell) string {
			if c.adaptive {
				return "ablation-window adaptive"
			}
			return fmt.Sprintf("ablation-window window=%d", c.window)
		})
	if err != nil {
		return WindowAblationResult{}, err
	}
	var acc stats.Accumulator
	for ci, outs := range groups {
		for _, out := range outs {
			if cells[ci].adaptive {
				acc.Add(out.CollisionRate)
			} else {
				res.Series.Add(float64(cells[ci].window), out.CollisionRate)
			}
		}
	}
	res.Adaptive = acc.Summary()
	return res, nil
}

// Render renders the window ablation as a table.
func (r WindowAblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Listening-window ablation (T=%d)\n", r.Config.Transmitters)
	fmt.Fprintf(&b, "%10s %24s\n", "window", "collision rate")
	for _, p := range r.Series.Points() {
		fmt.Fprintf(&b, "%10.0f %15.6f ± %6.4f\n", p.X, p.Y.Mean, p.Y.StdDev)
	}
	fmt.Fprintf(&b, "%10s %15.6f ± %6.4f\n", "2T (adapt)", r.Adaptive.Mean, r.Adaptive.StdDev)
	return b.String()
}

// --- Hidden-terminal ablation (Section 3.2, footnote 3) ---

// HiddenTerminalResult compares selector algorithms across a hearing
// spectrum: full mutual hearing, shadowed partial hearing, and mutually
// hidden transmitters. The spectrum is the Section 8 request — "a model of
// the system topology will be required to capture the effect of listening
// so that problems such as hidden terminal effects are taken into
// account" — made empirical.
type HiddenTerminalResult struct {
	Config Figure4Config
	IDBits int
	// FullMesh, Shadowed and Hidden map selector kind to collision-rate
	// summaries under each topology.
	FullMesh map[SelectorKind]stats.Summary
	Shadowed map[SelectorKind]stats.Summary
	Hidden   map[SelectorKind]stats.Summary
}

// HiddenStarTopology returns the footnote-3 topology: every transmitter
// linked to the receiver, no transmitter linked to any other.
func HiddenStarTopology(transmitters int, receiver radio.NodeID) radio.Topology {
	g := radio.NewGraph()
	for i := 1; i <= transmitters; i++ {
		g.SetLink(radio.NodeID(i), receiver, true)
	}
	return g
}

// ShadowedClusterTopology places the transmitters on a circle around the
// receiver under log-normal shadowing, then guarantees the
// transmitter-receiver links (a transmitter that cannot reach the receiver
// measures nothing) while leaving transmitter-to-transmitter hearing to
// the fades — some pairs hear each other, some do not.
func ShadowedClusterTopology(transmitters int, receiver radio.NodeID) radio.Topology {
	const (
		radioRange = 10.0
		sigmaDB    = 6.0
	)
	sh := radio.NewShadowed(radioRange, sigmaDB, 12345)
	sh.Place(receiver, radio.Point{})
	for i := 1; i <= transmitters; i++ {
		angle := 2 * math.Pi * float64(i-1) / float64(transmitters)
		sh.Place(radio.NodeID(i), radio.Point{
			X: 0.8 * radioRange * math.Cos(angle),
			Y: 0.8 * radioRange * math.Sin(angle),
		})
	}
	g := radio.NewGraph()
	for i := 1; i <= transmitters; i++ {
		g.SetLink(radio.NodeID(i), receiver, true)
		for j := i + 1; j <= transmitters; j++ {
			if sh.Connected(radio.NodeID(i), radio.NodeID(j)) {
				g.SetLink(radio.NodeID(i), radio.NodeID(j), true)
			}
		}
	}
	return g
}

// AblationHiddenTerminal measures how much of listening's advantage
// survives when senders are mutually hidden, and how much the explicit
// collision-notification extension recovers.
//
// The workload is forced periodic (not continuous): mutually hidden
// continuous senders destroy essentially every frame at the RF level, so
// there would be no surviving packets over which to measure identifier
// collisions. Moderate duty cycle lets transactions overlap in time while
// most frames interleave cleanly.
func AblationHiddenTerminal(cfg Figure4Config, idBits int, kinds []SelectorKind) (HiddenTerminalResult, error) {
	if err := cfg.Validate(); err != nil {
		return HiddenTerminalResult{}, err
	}
	res := HiddenTerminalResult{
		Config:   cfg,
		IDBits:   idBits,
		FullMesh: make(map[SelectorKind]stats.Summary, len(kinds)),
		Shadowed: make(map[SelectorKind]stats.Summary, len(kinds)),
		Hidden:   make(map[SelectorKind]stats.Summary, len(kinds)),
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 300 * time.Millisecond
	}
	topologies := []struct {
		name string
		topo func(int, radio.NodeID) radio.Topology
		dst  map[SelectorKind]stats.Summary
	}{
		{"full", nil, res.FullMesh},
		{"shadowed", ShadowedClusterTopology, res.Shadowed},
		{"hidden", HiddenStarTopology, res.Hidden},
	}
	type cell struct {
		kind SelectorKind
		topo int
	}
	var cells []cell
	for _, kind := range kinds {
		for ti := range topologies {
			cells = append(cells, cell{kind, ti})
		}
	}
	groups, err := runCells(cfg.Run, cfg.Obs, "ablation-hidden", cells, cfg.Trials,
		func(c cell) []string { return []string{topologies[c.topo].name, string(c.kind)} },
		func(c cell, src *xrand.Source) (TrialOutcome, error) {
			run := cfg
			run.Topology = topologies[c.topo].topo
			return RunCollisionTrial(run, c.kind, idBits, src)
		},
		TrialOutcome.capture,
		func(c cell) string { return fmt.Sprintf("ablation-hidden sel=%s", c.kind) })
	if err != nil {
		return HiddenTerminalResult{}, err
	}
	for ci, outs := range groups {
		var acc stats.Accumulator
		for _, out := range outs {
			acc.Add(out.CollisionRate)
		}
		topologies[cells[ci].topo].dst[cells[ci].kind] = acc.Summary()
	}
	return res, nil
}

// Render renders the hidden-terminal ablation.
func (r HiddenTerminalResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Hidden-terminal ablation (%d-bit identifiers, T=%d)\n", r.IDBits, r.Config.Transmitters)
	fmt.Fprintf(&b, "%18s %24s %24s %24s\n", "selector", "full mesh", "shadowed (partial)", "hidden senders")
	kinds := make([]SelectorKind, 0, len(r.FullMesh))
	for k := range r.FullMesh {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, kind := range kinds {
		full, sh, hid := r.FullMesh[kind], r.Shadowed[kind], r.Hidden[kind]
		fmt.Fprintf(&b, "%18s %15.6f ± %6.4f %15.6f ± %6.4f %15.6f ± %6.4f\n",
			kind, full.Mean, full.StdDev, sh.Mean, sh.StdDev, hid.Mean, hid.StdDev)
	}
	return b.String()
}

// --- MAC-overhead ablation (Section 4.4) ---

// MACAblationResult compares measured efficiency across MAC framing
// profiles for several schemes.
type MACAblationResult struct {
	Profiles []energy.MACProfile
	Schemes  []Scheme
	// E[profile.Name][scheme.Label()] is measured Equation 1 efficiency
	// including framing.
	E map[string]map[string]float64
}

// AblationMACOverhead quantifies Section 4.4: AFF's header savings matter
// under light (RPC-like) framing and wash out under heavy (802.11-like)
// framing.
//
// Use a small PacketSize (the paper's "periodic messages consisting of only
// a few bits") so both schemes emit the same number of frames; with large
// multi-fragment packets AFF's shorter headers also reduce the frame count,
// a separate effect that heavier framing amplifies rather than washes out.
func AblationMACOverhead(base EfficiencyConfig, schemes []Scheme, profiles []energy.MACProfile) (MACAblationResult, error) {
	if err := base.Run.Validate(); err != nil {
		return MACAblationResult{}, err
	}
	res := MACAblationResult{
		Profiles: profiles,
		Schemes:  schemes,
		E:        make(map[string]map[string]float64, len(profiles)),
	}
	for _, p := range profiles {
		res.E[p.Name] = make(map[string]float64, len(schemes))
	}
	// One trial per (profile, scheme) cell, profile-major.
	outs, err := runTrials(base.Run, nil, "ablation-mac", len(profiles)*len(schemes),
		func(i int, src *xrand.Source) (EfficiencyOutcome, error) {
			cfg := base
			cfg.MAC, cfg.Scheme = profiles[i/len(schemes)], schemes[i%len(schemes)]
			return RunEfficiencyTrial(cfg, src.Child(cfg.MAC.Name, cfg.Scheme.Label()))
		}, nil, nil)
	if err != nil {
		return MACAblationResult{}, err
	}
	for i, out := range outs {
		res.E[profiles[i/len(schemes)].Name][schemes[i%len(schemes)].Label()] = out.E()
	}
	return res, nil
}

// Render renders the MAC ablation as a profiles x schemes table.
func (r MACAblationResult) Render() string {
	var b strings.Builder
	b.WriteString("MAC framing-overhead ablation: measured efficiency (Eq. 1, incl. framing)\n")
	fmt.Fprintf(&b, "%14s", "MAC profile")
	for _, s := range r.Schemes {
		fmt.Fprintf(&b, " %22s", s.Label())
	}
	b.WriteByte('\n')
	for _, p := range r.Profiles {
		fmt.Fprintf(&b, "%14s", p.Name)
		for _, s := range r.Schemes {
			fmt.Fprintf(&b, " %22.4f", r.E[p.Name][s.Label()])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// --- Transaction-length ablation (Sections 4.1 and 8) ---

// LengthAblationResult compares measured collision rates for fixed-length
// and mixed-length transactions against the fixed-length model (Eq. 4)
// and the extended random-duration model (PSuccessPoisson, the Section 8
// refinement).
type LengthAblationResult struct {
	Config Figure4Config
	IDBits int
	// Model is Equation 4 (equal lengths); ModelPoisson is the
	// exponential-duration extension.
	Model        float64
	ModelPoisson float64
	Fixed        stats.Summary
	Mixed        stats.Summary
	Lengths      []int
}

// AblationTransactionLengths probes the model's equal-length assumption:
// the same identifier width and offered density, with packet sizes drawn
// from lengths instead of the fixed default.
func AblationTransactionLengths(cfg Figure4Config, idBits int, lengths []int) (LengthAblationResult, error) {
	if err := cfg.Validate(); err != nil {
		return LengthAblationResult{}, err
	}
	res := LengthAblationResult{Config: cfg, IDBits: idBits, Lengths: lengths}
	mixCfg := cfg
	mixCfg.PacketSizes = lengths
	// Fixed and mixed trials interleave: job 2t is fixed trial t, 2t+1
	// the mixed one.
	outs, err := runTrials(cfg.Run, cfg.Obs, "ablation-length", 2*cfg.Trials, func(i int, src *xrand.Source) (TrialOutcome, error) {
		if i%2 == 1 {
			return RunCollisionTrial(mixCfg, SelUniform, idBits, src.Child("mixed", strconv.Itoa(i/2)))
		}
		return RunCollisionTrial(cfg, SelUniform, idBits, src.Child("fixed", strconv.Itoa(i/2)))
	}, TrialOutcome.capture, func(i int) string {
		if i%2 == 1 {
			return "ablation-length mixed"
		}
		return "ablation-length fixed"
	})
	if err != nil {
		return LengthAblationResult{}, err
	}
	var fixed, mixed stats.Accumulator
	for i, out := range outs {
		if i%2 == 1 {
			mixed.Add(out.CollisionRate)
		} else {
			fixed.Add(out.CollisionRate)
		}
	}
	res.Fixed = fixed.Summary()
	res.Mixed = mixed.Summary()
	res.Model = model.CollisionRate(idBits, float64(cfg.Transmitters))
	res.ModelPoisson = model.CollisionRatePoisson(idBits, float64(cfg.Transmitters))
	return res, nil
}

// Render renders the transaction-length ablation.
func (r LengthAblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Transaction-length ablation (%d-bit identifiers, T=%d)\n", r.IDBits, r.Config.Transmitters)
	fmt.Fprintf(&b, "model, equal lengths (Eq. 4):      %.6f\n", r.Model)
	fmt.Fprintf(&b, "model, exponential lengths (ext.): %.6f\n", r.ModelPoisson)
	fmt.Fprintf(&b, "measured fixed %dB:    %.6f ± %.4f\n", r.Config.PacketSize, r.Fixed.Mean, r.Fixed.StdDev)
	fmt.Fprintf(&b, "measured mixed %v: %.6f ± %.4f\n", r.Lengths, r.Mixed.Mean, r.Mixed.StdDev)
	return b.String()
}
