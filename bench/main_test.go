package bench

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// TestMain lets the test binary serve as its own benchmark child, so the
// smoke test exercises the real child-process path.
func TestMain(m *testing.M) {
	if code, ok := childMain(os.Stdout); ok {
		os.Exit(code)
	}
	os.Exit(m.Run())
}

// TestSmokeEveryWorkload runs every workload at a tiny size through set-up,
// untraced and traced children, and checks that each metric BENCHMARK.json
// declares is printed with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	var out bytes.Buffer
	res := run(workloads, plan{seed: 1, setups: 2, repeats: 2, untraced: true, traced: true, tiny: true}, &out)
	for _, w := range res.Workloads {
		if !w.Correct {
			t.Errorf("%s: incorrect: %v", w.Name, w.Problems)
		}
		if w.Attempted == 0 {
			t.Errorf("%s: no audited cells", w.Name)
		}
	}
	spec := loadBenchmarkJSON(t)
	printed := out.String()
	check := func(name, unit string) {
		re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `\s+` + regexp.QuoteMeta(unit) + `\s`)
		if n := len(re.FindAllString(printed, -1)); n != len(workloads) {
			t.Errorf("%s [%s] printed for %d of %d workloads", name, unit, n, len(workloads))
		}
	}
	for _, m := range spec.EndToEnd {
		check(m.Name, m.Unit)
	}
	for _, m := range spec.PerLayer {
		check(m.Name, m.Unit)
	}
	if t.Failed() {
		t.Logf("output:\n%s", printed)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %v, %v; want 1, 4", q1, q3)
	}
}

func TestInternalModule(t *testing.T) {
	for fn, want := range map[string]string{
		"retri/internal/radio.(*Medium).deliver":        "radio",
		"retri/internal/runner.Map[...].func1":          "runner",
		"retri/internal/experiment.RunChaosTrial.func3": "experiment",
		"runtime.mallocgc":                              "",
		"retri/bench.traceChild":                        "",
	} {
		got, ok := internalModule(fn)
		if got != want || ok != (want != "") {
			t.Errorf("internalModule(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
}
