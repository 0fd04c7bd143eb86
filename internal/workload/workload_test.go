package workload

import (
	"testing"
	"time"

	"retri/internal/aff"
	"retri/internal/core"
	"retri/internal/node"
	"retri/internal/radio"
	"retri/internal/sim"
	"retri/internal/xrand"
)

type rig struct {
	eng  *sim.Engine
	med  *radio.Medium
	tx   *node.AFFDriver
	rx   *node.AFFDriver
	recv int
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.NewEngine()
	src := xrand.NewSource(21)
	med := radio.NewMedium(eng, radio.FullMesh{}, radio.DefaultParams(), src.Stream("med", t.Name()))
	cfg := aff.Config{Space: core.MustSpace(16), MTU: 27}
	mk := func(id radio.NodeID) *node.AFFDriver {
		sel := core.NewUniformSelector(cfg.Space, src.Stream("sel", t.Name(), string(rune('0'+id))))
		d, err := node.NewAFF(med.MustAttach(id), cfg, sel, node.AFFOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	r := &rig{eng: eng, med: med, tx: mk(1), rx: mk(2)}
	r.rx.SetPacketHandler(func([]byte) { r.recv++ })
	return r
}

func TestContinuousSaturatesChannel(t *testing.T) {
	r := newRig(t)
	rng := xrand.NewSource(1).Stream("wl", t.Name())
	c := NewContinuous(r.eng, r.tx, 80, 0, rng)
	c.Start(10 * time.Second)
	r.eng.Run()

	st := c.Stats()
	if st.SendErrors != 0 {
		t.Errorf("SendErrors = %d", st.SendErrors)
	}
	// 80-byte packets = 5 frames * ~6ms airtime ≈ 32ms/packet; 10s of
	// continuous streaming must produce a few hundred packets.
	if st.PacketsOffered < 100 {
		t.Errorf("PacketsOffered = %d, want >= 100 over 10s", st.PacketsOffered)
	}
	if r.recv < int(st.PacketsOffered*9/10) {
		t.Errorf("received %d of %d offered; continuous load on a clean channel should mostly arrive",
			r.recv, st.PacketsOffered)
	}
}

func TestContinuousStops(t *testing.T) {
	r := newRig(t)
	rng := xrand.NewSource(2).Stream("wl")
	c := NewContinuous(r.eng, r.tx, 80, 0, rng)
	c.Start(time.Hour)
	r.eng.RunUntil(100 * time.Millisecond)
	c.Stop()
	offered := c.Stats().PacketsOffered
	r.eng.RunUntil(200 * time.Millisecond)
	if got := c.Stats().PacketsOffered; got != offered {
		t.Errorf("packets offered after Stop: %d -> %d", offered, got)
	}
}

func TestContinuousRespectsDeadline(t *testing.T) {
	r := newRig(t)
	rng := xrand.NewSource(3).Stream("wl")
	c := NewContinuous(r.eng, r.tx, 80, 0, rng)
	c.Start(50 * time.Millisecond)
	r.eng.Run()
	if r.eng.Now() > time.Second {
		t.Errorf("engine ran to %v; generator did not stop at deadline", r.eng.Now())
	}
}

func TestPeriodicRate(t *testing.T) {
	r := newRig(t)
	rng := xrand.NewSource(4).Stream("wl")
	p := NewPeriodic(r.eng, r.tx, 10, time.Second, 0, rng)
	p.Start(10500 * time.Millisecond)
	r.eng.Run()
	if got := p.Stats().PacketsOffered; got != 10 {
		t.Errorf("PacketsOffered = %d, want 10 (one per second)", got)
	}
	if r.recv != 10 {
		t.Errorf("received %d, want 10", r.recv)
	}
}

func TestPeriodicJitterStaysInBounds(t *testing.T) {
	r := newRig(t)
	rng := xrand.NewSource(5).Stream("wl")
	p := NewPeriodic(r.eng, r.tx, 10, time.Second, 500*time.Millisecond, rng)
	p.Start(30 * time.Second)
	r.eng.Run()
	got := p.Stats().PacketsOffered
	// Intervals in [1s, 1.5s): between 19 and 30 packets in 30s.
	if got < 19 || got > 30 {
		t.Errorf("PacketsOffered = %d, want within [19, 30]", got)
	}
}

func TestGeneratorCountsSendErrors(t *testing.T) {
	r := newRig(t)
	r.tx.Radio().SetUp(false)
	rng := xrand.NewSource(7).Stream("wl")
	p := NewPeriodic(r.eng, r.tx, 10, time.Second, 0, rng)
	p.Start(5500 * time.Millisecond)
	r.eng.Run()
	if p.Stats().SendErrors != 5 {
		t.Errorf("SendErrors = %d, want 5", p.Stats().SendErrors)
	}
	if p.Stats().PacketsOffered != 0 {
		t.Errorf("PacketsOffered = %d, want 0", p.Stats().PacketsOffered)
	}
}

func TestDefaultsApplied(t *testing.T) {
	r := newRig(t)
	rng := xrand.NewSource(8).Stream("wl")
	if p := NewPeriodic(r.eng, r.tx, 1, 0, 0, rng); p.interval != time.Second {
		t.Error("periodic default interval not applied")
	}
	if c := NewContinuous(r.eng, r.tx, 1, 0, rng); c.poll <= 0 {
		t.Error("continuous default poll not applied")
	}
}

// TestRestartWithinIntervalKeepsOneChain: Stop then Start before the
// pending tick fires must resume that tick, not start a second chain that
// doubles the rate. A restarted generator therefore emits exactly what an
// uninterrupted one with the same stream does, over the same engine events
// (a continuous streamer's rate is capped by its radio, so a duplicate poll
// chain shows up in the event count rather than the packet count).
func TestRestartWithinIntervalKeepsOneChain(t *testing.T) {
	type gen interface {
		Start(until time.Duration)
		Stop()
		Stats() Stats
	}
	kinds := []struct {
		name string
		mk   func(r *rig) gen
	}{
		{"continuous", func(r *rig) gen { return NewContinuous(r.eng, r.tx, 80, 0, xrand.NewSource(9).Stream("wl")) }},
		{"periodic", func(r *rig) gen {
			return NewPeriodic(r.eng, r.tx, 10, 100*time.Millisecond, 0, xrand.NewSource(9).Stream("wl"))
		}},
	}
	const until = 2 * time.Second
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			ref := newRig(t)
			g := k.mk(ref)
			g.Start(until)
			ref.eng.Run()
			want, wantEvents := g.Stats().PacketsOffered, ref.eng.Processed()

			r := newRig(t)
			g = k.mk(r)
			g.Start(until)
			r.eng.RunUntil(150 * time.Millisecond)
			g.Stop()
			g.Start(until)
			r.eng.Run()
			if got := g.Stats().PacketsOffered; got != want {
				t.Errorf("restarted generator offered %d packets, uninterrupted offered %d", got, want)
			}
			if got := r.eng.Processed(); got != wantEvents {
				t.Errorf("restarted run processed %d events, uninterrupted %d", got, wantEvents)
			}
			if k.name == "periodic" && want != 19 {
				t.Errorf("periodic offered %d packets in 2s at 100ms, want 19", want)
			}
		})
	}
}
