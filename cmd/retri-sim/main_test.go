package main

import "testing"

func TestRunDefaultScenarioTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	if err := run([]string{"-duration", "5s", "-bits", "6"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunListeningHidden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	if err := run([]string{"-duration", "5s", "-bits", "5", "-selector", "listening", "-hidden"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownSelector(t *testing.T) {
	if err := run([]string{"-duration", "1s", "-selector", "psychic"}); err == nil {
		t.Error("unknown selector accepted")
	}
}

// TestRunRejectsBadScenario: a width outside [1, 32] used to panic, and a
// scenario with no simulated time, no transmitters or empty packets used
// to report a 0 collision rate; each is an error before the trial runs.
func TestRunRejectsBadScenario(t *testing.T) {
	for _, args := range [][]string{
		{"-bits", "0"},
		{"-bits", "40"},
		{"-duration", "0"},
		{"-transmitters", "0"},
		{"-packet", "0"},
	} {
		if err := run(args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-wat"}); err == nil {
		t.Error("bad flag accepted")
	}
}
