package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from this build")

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
// testdata/golden.json, keyed "<kind>-<name>". A sweep without a pinned
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
		base := []string{"-quick", "-" + s.kind, s.name}
		d := quickDigest{
			Table: digest(append(base, "-parallel", "1")...),
			CSV:   digest(append(base, "-parallel", "1", "-format", "csv")...),
		}
		if par := digest(append(base, "-parallel", "0")...); par != d.Table {
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
