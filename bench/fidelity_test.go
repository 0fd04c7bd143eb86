package bench

import (
	"math/rand/v2"
	"strconv"
	"testing"
	"time"

	"retri/internal/core"
	"retri/internal/density"
	"retri/internal/experiment"
	"retri/internal/xrand"
)

// The decorated trials must be the sweep's trials, only timed: same
// outcome, same counters, same replayed deliveries.

func TestDecoratedCollisionTrialMatchesSweep(t *testing.T) {
	cfg := fig4Config(3, size{})
	cfg.Duration = 5 * time.Second
	for _, kind := range []experiment.SelectorKind{experiment.SelUniform, experiment.SelListening} {
		src := fig4TraceTrial(3, kind)
		want, err := experiment.RunCollisionTrial(cfg, kind, fig4TraceBits, src)
		if err != nil {
			t.Fatal(err)
		}
		var sp fig4Spans
		got, capture, err := tracedCollisionTrial(cfg, kind, fig4TraceBits, src, &sp)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: decorated trial %+v, sweep trial %+v", kind, got, want)
		}
		if want.AFFDelivered == 0 {
			t.Fatalf("%s: trial delivered nothing; the comparison is vacuous", kind)
		}
		if sp.send.calls == 0 || sp.next.calls == 0 || sp.estimate.calls == 0 || sp.connected.calls == 0 || sp.run.calls != 1 {
			t.Errorf("%s: a decorator saw no calls: %+v", kind, sp)
		}
		if kind == experiment.SelListening && sp.observe.calls == 0 {
			t.Errorf("listening selector observed nothing")
		}
		if n := replayIngest(capture); n != want.AFFDelivered {
			t.Errorf("%s: replay delivered %d packets, the live receiver %d", kind, n, want.AFFDelivered)
		}
	}
}

func TestDecoratedMassiveTrialMatchesSweep(t *testing.T) {
	cfg := massiveConfig(2, size{tiny: true})
	const nodes = 3_000
	for _, policy := range cfg.Policies {
		for _, workers := range []int{1, 2} {
			src := xrand.NewSource(cfg.Seed).Child("massive").Child(strconv.Itoa(nodes), string(policy), "0")
			wantCtr, wantStats, _, err := experiment.RunMassiveTrial(cfg, nodes, policy, workers, src)
			if err != nil {
				t.Fatal(err)
			}
			var st shardTimes
			gotCtr, gotStats, err := tracedMassiveTrial(cfg, nodes, policy, workers, src, &st)
			if err != nil {
				t.Fatal(err)
			}
			if gotCtr != wantCtr || gotStats != wantStats {
				t.Errorf("%s at %d workers: decorated %+v %+v, sweep %+v %+v", policy, workers, gotCtr, gotStats, wantCtr, wantStats)
			}
			if wantCtr.Delivered == 0 {
				t.Fatalf("%s: trial delivered nothing; the comparison is vacuous", policy)
			}
			if st.advance == 0 || st.settle == 0 || st.route == 0 || st.mean == 0 {
				t.Errorf("%s at %d workers: a decorator saw no calls: %+v", policy, workers, st)
			}
		}
	}
}

// node.NewAFF wires reassembly completions to estimators that implement
// density.CompletionObserver, and a crash resets selectors and estimators
// that implement Reset, so the timing wrappers must keep both.
func TestWrappersKeepOptionalInterfaces(t *testing.T) {
	now := func() time.Duration { return 0 }
	var sp span
	if _, ok := wrapEstimator(density.NewTurnover(0, 0, now), &sp).(density.CompletionObserver); !ok {
		t.Error("wrapped turnover estimator lost density.CompletionObserver")
	}
	if _, ok := wrapEstimator(density.New(0, 0, now), &sp).(density.CompletionObserver); ok {
		t.Error("wrapped EMA estimator claims density.CompletionObserver")
	}
	inner := core.NewListeningSelector(core.MustSpace(6), rand.New(rand.NewPCG(1, 2)), core.FixedWindow(4))
	inner.Observe(3)
	timedSelector{inner, &sp, &sp}.Reset()
	if inner.Recent() != 0 {
		t.Error("wrapped selector did not forward Reset")
	}
	est := density.New(0, 0, now)
	est.Observe(3)
	wrapEstimator(est, &sp).(interface{ Reset() }).Reset()
	if est.Active() != 0 {
		t.Error("wrapped estimator did not forward Reset")
	}
}
