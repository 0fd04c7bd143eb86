package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSON validates the declared benchmark against its schema
// and against the catalog the command measures.
func TestBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", b.RunSeconds)
	}
	if len(b.Paths) == 0 || len(b.Paths) > 16 {
		t.Errorf("%d paths, want 1 to 16", len(b.Paths))
	}

	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the command %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		checkName(w.Name)
		if i < len(workloads) && (workloads[i].name != w.Name || workloads[i].why != w.Why) {
			t.Errorf("workload %d is %q (%q), the command's is %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1 to 200 characters", w.Name)
		}
	}

	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	gated := 0
	var setupBound, maxOther float64
	for _, m := range b.EndToEnd {
		checkName(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q invalid", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		c, ok := metricByName(m.Name)
		switch {
		case !ok:
			t.Errorf("%s: not a metric the command measures", m.Name)
		case !c.Gated || c.Abs || c.Unit != m.Unit || c.Better != m.Better || c.Bound != m.Bound:
			t.Errorf("%s: BENCHMARK.json says %s/%s/%v, the catalog %+v", m.Name, m.Unit, m.Better, m.Bound, c)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower better")
			}
		} else if m.Bound > maxOther {
			maxOther = m.Bound
		}
	}
	for _, c := range endToEnd {
		if c.Gated {
			gated++
			if len(c.On) != 0 {
				t.Errorf("%s is gated but not defined on every workload", c.Name)
			}
		}
	}
	if gated != len(b.EndToEnd) {
		t.Errorf("catalog gates %d metrics, BENCHMARK.json declares %d", gated, len(b.EndToEnd))
	}
	if setupBound == 0 {
		t.Error("setup_s missing")
	} else if setupBound <= maxOther {
		t.Errorf("setup_s bound %v must be the largest (another is %v)", setupBound, maxOther)
	}

	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the catalog %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		checkName(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q invalid", m.Name, m.Unit)
		}
		if i >= len(perLayer) {
			continue
		}
		c := perLayer[i]
		if c.Name != m.Name || c.Unit != m.Unit || c.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json says %s/%s/%s, the catalog %s/%s/%s", i, m.Name, m.Unit, m.Better, c.Name, c.Unit, c.Better)
		}
		if _, ok := metricByName(c.Moves); !ok {
			t.Errorf("%s should move %q, which is not an end-to-end metric", c.Name, c.Moves)
		}
		if _, ok := workloadByName(c.MovesOn); !ok {
			t.Errorf("%s should move on %q, which is not a workload", c.Name, c.MovesOn)
		}
	}
}
