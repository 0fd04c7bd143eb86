package experiment

import (
	"fmt"
	"strings"
	"time"

	"retri/internal/stats"
	"retri/internal/xrand"
)

// EstimatorAblationResult compares the two density estimators (the
// Section 8 "more accurate ways of estimating T" question) on saturating
// and bursty workloads.
type EstimatorAblationResult struct {
	Config Figure4Config
	IDBits int
	// EstimatedT[workload][estimator] summarizes the receiver's final
	// density estimate across trials.
	EstimatedT map[string]map[EstimatorKind]stats.Summary
	// Collision[workload][estimator] summarizes the listening selector's
	// collision rate when driven by that estimator's adaptive window.
	Collision map[string]map[EstimatorKind]stats.Summary
	// Workloads lists the scenario names in render order.
	Workloads []string
}

// AblationEstimator runs the comparison. Under the continuous workload the
// true density equals the transmitter count; under the bursty workload
// (periodic senders at low duty cycle) the true time-averaged density is
// far lower, which is where fragment-sampled estimation overshoots.
func AblationEstimator(cfg Figure4Config, idBits int) (EstimatorAblationResult, error) {
	if err := cfg.Validate(); err != nil {
		return EstimatorAblationResult{}, err
	}
	res := EstimatorAblationResult{
		Config:     cfg,
		IDBits:     idBits,
		EstimatedT: make(map[string]map[EstimatorKind]stats.Summary),
		Collision:  make(map[string]map[EstimatorKind]stats.Summary),
		Workloads:  []string{"continuous", "bursty"},
	}
	type cell struct {
		workload string
		est      EstimatorKind
	}
	var cells []cell
	for _, workload := range res.Workloads {
		res.EstimatedT[workload] = make(map[EstimatorKind]stats.Summary)
		res.Collision[workload] = make(map[EstimatorKind]stats.Summary)
		for _, est := range []EstimatorKind{EstEMA, EstInterval} {
			cells = append(cells, cell{workload, est})
		}
	}
	groups, err := runCells(cfg.Run, cfg.Obs, "ablation-estimator", cells, cfg.Trials,
		func(c cell) []string { return []string{c.workload, string(c.est)} },
		func(c cell, src *xrand.Source) (TrialOutcome, error) {
			run := cfg
			run.Estimator = c.est
			if c.workload == "bursty" {
				run.Interval = 2 * time.Second
			}
			return RunCollisionTrial(run, SelListening, idBits, src)
		},
		TrialOutcome.capture,
		func(c cell) string { return fmt.Sprintf("ablation-estimator workload=%s est=%s", c.workload, c.est) })
	if err != nil {
		return EstimatorAblationResult{}, err
	}
	for ci, outs := range groups {
		var tAcc, cAcc stats.Accumulator
		for _, out := range outs {
			tAcc.Add(out.EstimatedT)
			cAcc.Add(out.CollisionRate)
		}
		res.EstimatedT[cells[ci].workload][cells[ci].est] = tAcc.Summary()
		res.Collision[cells[ci].workload][cells[ci].est] = cAcc.Summary()
	}
	return res, nil
}

// Render renders the estimator ablation.
func (r EstimatorAblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Density-estimator ablation (%d-bit identifiers, %d transmitters)\n",
		r.IDBits, r.Config.Transmitters)
	fmt.Fprintf(&b, "%12s %10s %22s %24s\n", "workload", "estimator", "estimated T", "collision rate")
	for _, w := range r.Workloads {
		for _, est := range []EstimatorKind{EstEMA, EstInterval} {
			te := r.EstimatedT[w][est]
			ce := r.Collision[w][est]
			fmt.Fprintf(&b, "%12s %10s %14.2f ± %5.2f %15.6f ± %6.4f\n",
				w, est, te.Mean, te.StdDev, ce.Mean, ce.StdDev)
		}
	}
	b.WriteString("(continuous: true T = transmitter count; bursty: true time-averaged T ≈ duty cycle × transmitters, well below it)\n")
	return b.String()
}
