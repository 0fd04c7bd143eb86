package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json and testdata/usage.txt from this build")

// TestUsageGolden pins -h byte for byte: the flag set's PrintDefaults text
// against testdata/usage.txt. Regenerate with -update-golden only for a
// deliberate change to the help.
func TestUsageGolden(t *testing.T) {
	var b strings.Builder
	fs := newFlagSet(new(options))
	fs.SetOutput(&b)
	fs.PrintDefaults()
	path := filepath.Join("testdata", "usage.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if b.String() != string(want) {
		t.Errorf("-h text differs from %s:\n--- got ---\n%s--- want ---\n%s", path, b.String(), want)
	}
}

// raceEnabled is set under the race detector (race_test.go). Its
// instrumentation slows the 57 -quick runs below toward the test binary's
// 10-minute limit, so the golden runs uninstrumented (make golden); the
// parallel fold it exercises is race-checked by the smaller parallel tests.
var raceEnabled bool

// quickDigest pins one selection's -quick stdout: the table (which must be
// byte-identical at -parallel 1 and 0) and the CSV.
type quickDigest struct {
	Table string `json:"table"`
	CSV   string `json:"csv"`
}

// TestQuickStdoutGolden pins SHA-256 of every sweep's -quick stdout, in
// table form at -parallel 1 and 0 and in CSV at -parallel 1, against
// testdata/golden.json, keyed "<kind>-<name>". The analytic figures
// reject -parallel, so they run without it. A sweep without a pinned
// digest fails, and so does a pinned digest no sweep produces. Regenerate
// with -update-golden only for a deliberate output change.
func TestQuickStdoutGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweeps")
	}
	if raceEnabled {
		t.Skip("too slow under the race detector; make golden runs it")
	}
	digest := func(args ...string) string {
		sum := sha256.Sum256([]byte(captureStdout(t, args...)))
		return hex.EncodeToString(sum[:])
	}
	got := make(map[string]quickDigest)
	for _, s := range sweeps {
		name := s.kind + "-" + s.name
		args := func(parallel string, extra ...string) []string {
			a := []string{"-quick", "-" + s.kind, s.name}
			if slices.Contains(s.flags, "parallel") {
				a = append(a, "-parallel", parallel)
			}
			return append(a, extra...)
		}
		d := quickDigest{
			Table: digest(args("1")...),
			CSV:   digest(args("1", "-format", "csv")...),
		}
		if par := digest(args("0")...); par != d.Table {
			t.Errorf("%s: -parallel 0 table differs from -parallel 1", name)
		}
		got[name] = d
	}
	path := filepath.Join("testdata", "golden.json")
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	var want map[string]quickDigest
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		g, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: pinned selection no longer runs", name)
		case g.Table != w.Table:
			t.Errorf("%s: table stdout digest changed", name)
		case g.CSV != w.CSV:
			t.Errorf("%s: csv stdout digest changed", name)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: selection has no pinned digest (run with -update-golden)", name)
		}
	}
}
