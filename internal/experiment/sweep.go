package experiment

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"retri/internal/oracle"
	"retri/internal/radio"
	"retri/internal/runner"
	"retri/internal/sim"
	"retri/internal/xrand"
)

// Run is the trial protocol every sweep config embeds.
type Run struct {
	// Seed roots all randomness; trials use derived streams.
	Seed uint64
	// Duration is simulated time per trial (paper: 2 minutes).
	Duration time.Duration
	// Parallelism is the number of trials simulated concurrently; 0 or 1
	// runs them sequentially. Each trial owns its engine and random
	// streams and results merge by trial index, so output is identical at
	// any setting (DESIGN.md, "Parallelism"). Massive reads it as the
	// shard worker count inside each trial instead.
	Parallelism int
	// Hooks carries progress and timing callbacks to the runner.
	Hooks RunHooks
}

// Validate rejects a run no sweep can honor: a trial with no simulated
// time delivers nothing, so its rates read 0 instead of failing, and a
// negative fan-out is not a worker count.
func (r Run) Validate() error {
	if r.Duration <= 0 {
		return fmt.Errorf("experiment: trial duration %v must be positive", r.Duration)
	}
	if r.Parallelism < 0 {
		return fmt.Errorf("experiment: parallelism %d must be non-negative", r.Parallelism)
	}
	return nil
}

// runTrials is the one place a sweep's trials meet runner.Map: trial i of
// n runs with r's parallelism and hooks, handed the sweep's random source,
// the one r.Seed derives under label, to derive its own streams from.
// When capture is set, each outcome's observability capture folds into
// obs in job order under note(i). Outcomes come back in job order, so
// folds over them are identical at any parallelism.
func runTrials[T any](r Run, obs *Obs, label string, n int, trial func(i int, src *xrand.Source) (T, error),
	capture func(T) *TrialObs, note func(i int) string) ([]T, error) {
	src := xrand.NewSource(r.Seed).Child(label)
	outs, err := runner.Map(n, runner.Options{
		Parallelism: r.Parallelism,
		OnProgress:  r.Hooks.OnProgress,
		OnTrialTime: r.Hooks.OnTrialTime,
	}, func(i int) (T, error) { return trial(i, src) })
	if err != nil || capture == nil || obs == nil {
		return outs, err
	}
	caps := make([]*TrialObs, len(outs))
	for i, out := range outs {
		caps[i] = capture(out)
	}
	return outs, foldTrialObs(obs, caps, note)
}

// runCells runs cells x trials through runTrials, cell-major with trials
// innermost: trial t of a cell draws from the sweep's source's child
// path(cell)..., t, and its capture folds under note(cell). The outcomes
// come back grouped per cell, in cell order.
func runCells[C, T any](r Run, obs *Obs, label string, cells []C, trials int, path func(C) []string,
	trial func(C, *xrand.Source) (T, error), capture func(T) *TrialObs, note func(C) string) ([][]T, error) {
	outs, err := runTrials(r, obs, label, len(cells)*trials, func(i int, src *xrand.Source) (T, error) {
		c := cells[i/trials]
		return trial(c, src.Child(append(path(c), strconv.Itoa(i%trials))...))
	}, capture, func(i int) string { return note(cells[i/trials]) })
	if err != nil {
		return nil, err
	}
	groups := make([][]T, len(cells))
	for c := range groups {
		groups[c] = outs[c*trials : (c+1)*trials]
	}
	return groups, nil
}

// parseList parses a comma-separated CLI list of names: "all" selects all,
// blank entries are skipped, and a name outside known, or a list naming
// nothing, is an error that says which kind of list it was.
func parseList[T ~string](s, kind string, all, known []T) ([]T, error) {
	if s == "all" {
		return all, nil
	}
	var out []T
	for _, part := range strings.Split(s, ",") {
		k := T(strings.TrimSpace(part))
		if k == "" {
			continue
		}
		if !slices.Contains(known, k) {
			names := make([]string, len(known))
			for i, n := range known {
				names[i] = string(n)
			}
			return nil, fmt.Errorf("experiment: unknown %s %q (want %s or all)", kind, k, strings.Join(names, ", "))
		}
		out = append(out, k)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiment: empty %s list %q", kind, s)
	}
	return out, nil
}

// mergeReport folds a trial's oracle report into its row's, allocating
// the row's on first use; rows whose trials carry none stay nil.
func mergeReport(row, trial *oracle.Report) *oracle.Report {
	if trial == nil {
		return row
	}
	if row == nil {
		row = &oracle.Report{}
	}
	row.Merge(*trial)
	return row
}

// widthSeries averages a cell's per-trial width time series index by
// index: sampling instants are deterministic, so the trials align. Every
// trial counts toward the mean, including ones that sampled nothing.
func widthSeries[T any](outs []T, samples func(T) []DynPoint) []DynPoint {
	var sum []DynPoint
	for _, out := range outs {
		ps := samples(out)
		if sum == nil && len(ps) > 0 {
			sum = make([]DynPoint, len(ps))
			for s, p := range ps {
				sum[s].At = p.At
			}
		}
		for s, p := range ps {
			sum[s].AchievedH += p.AchievedH
			sum[s].OptimalH += p.OptimalH
			sum[s].Awake += p.Awake
		}
	}
	n := float64(len(outs))
	for s := range sum {
		sum[s].AchievedH /= n
		sum[s].OptimalH /= n
		sum[s].Awake /= n
	}
	return sum
}

// widthProbe is a trial's achieved-vs-optimal identifier width record:
// the per-instant time series and the steady-state sums behind its means.
type widthProbe struct {
	samples                []DynPoint
	sumAch, sumOpt, sumGap float64
	steady                 int
}

// probeWidths samples senders 1..n every interval up to horizon. At each
// instant sample reports a sender's width w and clamped Eq. 4 optimum h,
// or ok=false to skip it; steady marks the trial's second half, whose
// samples also feed the steady-state means.
func probeWidths(eng *sim.Engine, interval, horizon time.Duration, n int, sample func(id radio.NodeID, steady bool) (w, h int, ok bool)) *widthProbe {
	p := &widthProbe{}
	half := horizon / 2
	for at := interval; at <= horizon; at += interval {
		at := at
		eng.ScheduleAt(at, func() {
			pt := DynPoint{At: at}
			for i := 1; i <= n; i++ {
				w, h, ok := sample(radio.NodeID(i), at > half)
				if !ok {
					continue
				}
				pt.AchievedH += float64(w)
				pt.OptimalH += float64(h)
				pt.Awake++
				if at > half {
					p.sumAch += float64(w)
					p.sumOpt += float64(h)
					p.sumGap += math.Abs(float64(w - h))
					p.steady++
				}
			}
			if pt.Awake > 0 {
				pt.AchievedH /= pt.Awake
				pt.OptimalH /= pt.Awake
			}
			p.samples = append(p.samples, pt)
		})
	}
	return p
}

// means returns the steady-state mean achieved width, mean optimum and
// mean absolute gap, all zero when nothing steady was sampled.
func (p *widthProbe) means() (ach, opt, gap float64) {
	if p.steady == 0 {
		return 0, 0, 0
	}
	n := float64(p.steady)
	return p.sumAch / n, p.sumOpt / n, p.sumGap / n
}

// idLoss is the share of ground-truth deliveries the identifier-keyed
// reassembler lost: Figure 4's collision rate (0 when nothing arrived).
func idLoss(truth, delivered int64) float64 {
	return ratio(max(truth-delivered, 0), truth)
}

// ratio is num/den, or 0 when den is not positive.
func ratio(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// arqMode names a row's recovery mode in tables and CSV.
func arqMode(reliable bool) string {
	if reliable {
		return "arq"
	}
	return "bare"
}

// checkRows is the audit gate every audited sweep's Check shares: the
// first row, in row order, whose check fails fails the sweep, with an
// error naming the sweep and the row.
func checkRows[R any](sweep string, rows []R, label func(R) string, check func(R) error) error {
	for _, r := range rows {
		if err := check(r); err != nil {
			return fmt.Errorf("%s %s: %w", sweep, label(r), err)
		}
	}
	return nil
}

// checkReport is one row's oracle gate: an attached report must pass
// oracle.Report.Check, and a missing one fails only a row that must carry
// one.
func checkReport(o *oracle.Report, required bool) error {
	if o == nil {
		if required {
			return errors.New("no oracle report attached")
		}
		return nil
	}
	return o.Check()
}

// anyOracle reports whether any row carries an oracle report, which is
// when a sweep's table grows its conformance section.
func anyOracle[R any](rows []R, report func(R) *oracle.Report) bool {
	return slices.ContainsFunc(rows, func(r R) bool { return report(r) != nil })
}

// violations renders a report's safety counters for the conformance
// tables: conservation/misdelivery/freshness.
func violations(o *oracle.Report) string {
	return fmt.Sprintf("%d/%d/%d", o.ConservationViolations, o.Misdeliveries, o.FreshnessViolations)
}
