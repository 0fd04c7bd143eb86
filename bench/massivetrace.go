package bench

import (
	"strconv"
	"time"

	"retri/internal/experiment"
	"retri/internal/shard"
	"retri/internal/xrand"
)

// The massive traced trial repeats experiment.RunMassiveTrial with every
// shard.Region, the Router and the OnBarrier hook wrapped in timers. Each
// region owns its accumulators, so the parallel phases share nothing.

// regionTimer decorates one region.
type regionTimer struct {
	inner                         shard.Region
	advance, emit, absorb, settle int64
	phase1, phase2                []int64 // per-window busy time in each parallel phase
	absorbed                      int64   // this window's Absorb time, folded into phase2 by Settle
}

func (r *regionTimer) Advance(to time.Duration) {
	t := time.Now()
	r.inner.Advance(to)
	d := int64(time.Since(t))
	r.advance += d
	r.phase1 = append(r.phase1, d)
}

func (r *regionTimer) Emit(into []shard.Record) []shard.Record {
	t := time.Now()
	out := r.inner.Emit(into)
	r.emit += int64(time.Since(t))
	return out
}

func (r *regionTimer) Absorb(batch []shard.Record) {
	t := time.Now()
	r.inner.Absorb(batch)
	d := int64(time.Since(t))
	r.absorb += d
	r.absorbed += d
}

func (r *regionTimer) Settle(to time.Duration) {
	t := time.Now()
	r.inner.Settle(to)
	d := int64(time.Since(t))
	r.settle += d
	r.phase2 = append(r.phase2, d+r.absorbed)
	r.absorbed = 0
}

func (r *regionTimer) Idle() bool { return r.inner.Idle() }

type routeTimer struct {
	inner shard.Router
	ns    int64
}

func (r *routeTimer) Route(rec *shard.Record, into []int32) []int32 {
	t := time.Now()
	out := r.inner.Route(rec, into)
	r.ns += int64(time.Since(t))
	return out
}

// shardTimes sums the decorated trials' spans.
type shardTimes struct {
	advance, emit, route, absorb, settle, barrier, run int64
	// slowest and mean sum, over windows and both parallel phases, the
	// busiest worker's time and the mean worker's time.
	slowest, mean float64
	events        uint64
}

// sensorConfig maps one massive cell onto the shard model, as the sweep
// does.
func sensorConfig(cfg experiment.MassiveConfig, nodes int, policy experiment.WidthPolicyKind) shard.SensorConfig {
	return shard.SensorConfig{
		Nodes:        nodes,
		NodesPerTile: cfg.NodesPerTile,
		Range:        cfg.Range,
		Duty:         cfg.Duty,
		SendGap:      cfg.SendGap,
		Fragments:    cfg.Fragments,
		FrameAir:     cfg.FrameAir,
		FragGap:      cfg.FragGap,
		DataBits:     8 * cfg.PacketSize,
		Adaptive:     policy == experiment.WidthAdaptiveTurnover,
		FixedBits:    cfg.FixedBits,
		MinBits:      cfg.MinBits,
		MaxBits:      cfg.MaxBits,
		FrameLoss:    cfg.FrameLoss,
		ProbeEvery:   cfg.ProbeEvery,
		AuditEvery:   cfg.AuditEvery,
	}
}

// tracedMassiveTrial is experiment.RunMassiveTrial with its regions,
// router and barrier hook decorated.
func tracedMassiveTrial(cfg experiment.MassiveConfig, nodes int, policy experiment.WidthPolicyKind, workers int, src *xrand.Source, st *shardTimes) (shard.Counters, shard.RunStats, error) {
	cl, err := shard.NewCluster(sensorConfig(cfg, nodes, policy), src)
	if err != nil {
		return shard.Counters{}, shard.RunStats{}, err
	}
	regions := cl.Regions()
	timers := make([]*regionTimer, len(regions))
	wrapped := make([]shard.Region, len(regions))
	for i, r := range regions {
		timers[i] = &regionTimer{inner: r}
		wrapped[i] = timers[i]
	}
	eng := shard.NewEngine(cfg.FrameAir, workers, wrapped...)
	defer eng.Close()
	router := &routeTimer{inner: cl}
	eng.Router = router
	eng.OnBarrier = func(now time.Duration) {
		t := time.Now()
		cl.OnBarrier(now)
		st.barrier += int64(time.Since(t))
	}
	start := time.Now()
	eng.Run(cfg.Duration)
	st.run += int64(time.Since(start))

	// The engine stripes region i onto worker i mod w.
	w := workers
	if w < 1 {
		w = 1
	}
	if w > len(timers) {
		w = len(timers)
	}
	busy := make([]int64, w)
	for _, phase := range []func(*regionTimer) []int64{
		func(r *regionTimer) []int64 { return r.phase1 },
		func(r *regionTimer) []int64 { return r.phase2 },
	} {
		for win := range phase(timers[0]) {
			var total, max int64
			for k := range busy {
				busy[k] = 0
			}
			for i, r := range timers {
				busy[i%w] += phase(r)[win]
			}
			for _, b := range busy {
				total += b
				if b > max {
					max = b
				}
			}
			st.slowest += float64(max)
			st.mean += float64(total) / float64(w)
		}
	}
	for _, r := range timers {
		st.advance += r.advance
		st.emit += r.emit
		st.absorb += r.absorb
		st.settle += r.settle
	}
	st.route += router.ns
	ctr := cl.Counters()
	st.events += ctr.Events + ctr.Verdicts
	return ctr, eng.Stats(), nil
}

// decorateMassive runs every cell of the sweep again, decorated, with the
// sweep's own per-trial sources.
func decorateMassive(seed uint64, sz size, layers map[string]float64) error {
	cfg := massiveConfig(seed, sz)
	src := xrand.NewSource(cfg.Seed).Child("massive")
	var st shardTimes
	for _, n := range cfg.Populations {
		for _, policy := range cfg.Policies {
			for t := 0; t < cfg.Trials; t++ {
				tsrc := src.Child(strconv.Itoa(n), string(policy), strconv.Itoa(t))
				if _, _, err := tracedMassiveTrial(cfg, n, policy, cfg.Parallelism, tsrc, &st); err != nil {
					return err
				}
			}
		}
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	layers["shard.advance_ms"] = ms(st.advance)
	layers["shard.emit_ms"] = ms(st.emit)
	layers["shard.route_ms"] = ms(st.route)
	layers["shard.absorb_ms"] = ms(st.absorb)
	layers["shard.settle_ms"] = ms(st.settle)
	layers["shard.barrier_ms"] = ms(st.barrier)
	layers["shard.ns_per_event"] = ratio(st.run, int64(st.events))
	if st.mean > 0 {
		layers["shard.straggler_ratio"] = st.slowest / st.mean
	}
	return nil
}
