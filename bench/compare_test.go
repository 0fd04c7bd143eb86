package bench

import "testing"

func TestCompareFlagsOnlyWhatExceedsItsBound(t *testing.T) {
	base := func() Results {
		return Results{Seed: 1, Workloads: []WorkloadResult{{
			Name:   wFig4,
			Digest: "d",
			EndToEnd: map[string]Summary{
				"wall_s":         {Unit: "s", Median: 4, Q1: 3.9, Q3: 4.1, N: 5},
				"delivery_ratio": {Unit: "ratio", Median: 0.7, N: 5},
				"eq4_error":      {Unit: "rate", Median: 0.03, N: 5},
			},
		}}}
	}
	flagged := func(a, b Results) map[string]bool {
		out := map[string]bool{}
		for _, r := range compareResults(a, b) {
			if r.flagged {
				out[r.metric] = true
			}
		}
		return out
	}

	if f := flagged(base(), base()); len(f) != 0 {
		t.Errorf("identical results flagged %v", f)
	}

	wall, _ := metricByName("wall_s")
	b := base()
	b.Workloads[0].EndToEnd["wall_s"] = Summary{Unit: "s", Median: 4 * (1 + wall.Bound/2)}
	if f := flagged(base(), b); len(f) != 0 {
		t.Errorf("a wall time slower by half its bound flagged %v", f)
	}
	b.Workloads[0].EndToEnd["wall_s"] = Summary{Unit: "s", Median: 4 * (1 + 1.5*wall.Bound)}
	if f := flagged(base(), b); !f["wall_s"] || len(f) != 1 {
		t.Errorf("a wall time slower by 1.5 bounds should flag wall_s alone, flagged %v", f)
	}

	b = base()
	b.Workloads[0].EndToEnd["eq4_error"] = Summary{Unit: "rate", Median: 0.029}
	if f := flagged(base(), b); !f["eq4_error"] {
		t.Error("a deterministic metric that changed, even for the better, must be flagged")
	}

	b = base()
	b.Workloads[0].Digest = "e"
	delete(b.Workloads[0].EndToEnd, "delivery_ratio")
	if f := flagged(base(), b); !f["digest"] || !f["delivery_ratio"] {
		t.Errorf("a changed digest and a missing metric must be flagged, flagged %v", f)
	}
}
