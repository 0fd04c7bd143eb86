package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// compareRow is one (workload, end-to-end metric) pair of a comparison.
type compareRow struct {
	workload, metric, unit string
	a, b                   *Summary
	verdict                string
	flagged                bool
}

// compareResults judges b against the baseline a: a timing metric is
// flagged when its median worsens by more than the metric's bound, a
// deterministic one when it differs at all, and a workload when its output
// digest changed.
func compareResults(a, b Results) []compareRow {
	var rows []compareRow
	for _, wa := range a.Workloads {
		var wb *WorkloadResult
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			rows = append(rows, compareRow{workload: wa.Name, metric: "-", verdict: "missing from B", flagged: true})
			continue
		}
		if wa.Digest != wb.Digest {
			rows = append(rows, compareRow{workload: wa.Name, metric: "digest", verdict: "output differs", flagged: true})
		}
		for _, m := range endToEnd {
			sa, okA := wa.EndToEnd[m.Name]
			sb, okB := wb.EndToEnd[m.Name]
			if !okA && !okB {
				continue
			}
			row := compareRow{workload: wa.Name, metric: m.Name, unit: m.Unit}
			if !okA || !okB {
				row.verdict, row.flagged = "measured on one side only", true
				rows = append(rows, row)
				continue
			}
			row.a, row.b = &sa, &sb
			row.verdict, row.flagged = judge(m, sa.Median, sb.Median)
			rows = append(rows, row)
		}
	}
	return rows
}

// judge compares one metric's medians.
func judge(m Metric, a, b float64) (string, bool) {
	worse := b - a
	if m.Better == "higher" {
		worse = -worse
	}
	limit := m.Bound
	if !m.Abs {
		limit *= math.Abs(a)
	}
	rel := ""
	if a != 0 {
		rel = fmt.Sprintf(" (%+.2f%%)", 100*(b-a)/math.Abs(a))
	}
	switch {
	case worse > limit:
		return "REGRESSION" + rel, true
	case !m.Timing && a != b:
		return "CHANGED" + rel, true
	case !m.Timing:
		return "identical", false
	default:
		return "ok" + rel, false
	}
}

func loadResults(path string) (Results, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Results{}, err
	}
	var r Results
	if err := json.Unmarshal(raw, &r); err != nil {
		return Results{}, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// runCompare prints the comparison of two results files and reports how
// many pairs it flagged.
func runCompare(pathA, pathB string, w io.Writer) (int, error) {
	a, err := loadResults(pathA)
	if err != nil {
		return 0, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return 0, err
	}
	if a.Seed != b.Seed {
		return 0, fmt.Errorf("results use different seeds (%d vs %d); deterministic metrics are only comparable at one seed", a.Seed, b.Seed)
	}
	fmt.Fprintf(w, "A=%s B=%s seed=%d\n", pathA, pathB, a.Seed)
	fmt.Fprintf(w, "%-15s %-15s %-8s %-36s %-36s %s\n", "workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "verdict")
	flagged := 0
	side := func(s *Summary) string {
		if s == nil {
			return "-"
		}
		return fmt.Sprintf("%.6g [%.6g, %.6g]", s.Median, s.Q1, s.Q3)
	}
	for _, r := range compareResults(a, b) {
		if r.flagged {
			flagged++
		}
		fmt.Fprintf(w, "%-15s %-15s %-8s %-36s %-36s %s\n", r.workload, r.metric, r.unit, side(r.a), side(r.b), r.verdict)
	}
	fmt.Fprintf(w, "%d flagged\n", flagged)
	return flagged, nil
}
