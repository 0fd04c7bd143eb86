package experiment

import (
	"fmt"
	"time"

	"retri/internal/aff"
	"retri/internal/energy"
	"retri/internal/metrics"
	"retri/internal/oracle"
	"retri/internal/radio"
	"retri/internal/sim"
	"retri/internal/span"
	"retri/internal/trace"
	"retri/internal/truth"
)

// Obs opts an experiment run into observability. The zero config (a nil
// *Obs) is the default everywhere and costs nothing: no tracer is
// installed, no registry is touched, and trials run exactly as before.
//
// Obs itself is read-only shared configuration. Each trial builds its own
// private capture (a TrialObs) and the experiment folds the captures into
// Metrics and Trace in trial-index order after the runner returns — the
// capture-then-merge pattern from the trace package comment — so results
// are identical at any Parallelism and race-free under it.
type Obs struct {
	// Metrics, when non-nil, receives every trial's counters, gauges and
	// histograms via Registry.Merge.
	Metrics *metrics.Registry
	// Trace, when non-nil, receives every trial's radio event stream,
	// replayed in trial order with a Custom "trial-start …" marker before
	// each trial. It is only Recorded into by the folding goroutine.
	Trace trace.Tracer
	// TraceEventCap bounds the events buffered per trial before replay;
	// 0 means DefaultTraceEventCap, negative means unbounded.
	TraceEventCap int
	// Spans, when non-nil, receives every trial's transaction-lifecycle
	// span trace, folded in trial-index order like everything else.
	Spans *span.Ledger

	// traceDropped accumulates events dropped by per-trial trace buffers
	// across the run (written only by the folding goroutine).
	traceDropped int64
}

// TraceDropped reports how many trace events per-trial buffers dropped
// across every fold so far — zero means the trace outputs are complete.
func (o *Obs) TraceDropped() int64 {
	if o == nil {
		return 0
	}
	return o.traceDropped
}

// DefaultTraceEventCap bounds per-trial trace capture (about 50 MB of
// buffered events per trial at the Event struct's size) unless overridden.
const DefaultTraceEventCap = 1 << 20

// TrialObs is one trial's private observability capture.
type TrialObs struct {
	// Metrics holds the trial's registry (nil unless Obs.Metrics is set).
	Metrics *metrics.Registry
	// Trace holds the trial's buffered events (nil unless Obs.Trace is set).
	Trace *trace.Buffer
	// Spans holds the trial's span tracer (nil unless Obs.Spans is set;
	// installed by the trial via attachTruth).
	Spans *span.Tracer
}

// newTrialObs builds a trial's private capture and installs its tracer
// on med, returning the tracer for the trial's other event sources. Both
// are nil when o is nil or requests nothing.
func newTrialObs(o *Obs, med *radio.Medium) (*TrialObs, trace.Tracer) {
	if o == nil {
		return nil, nil
	}
	t := &TrialObs{}
	var tracers []trace.Tracer
	if o.Metrics != nil {
		t.Metrics = metrics.NewRegistry()
		tracers = append(tracers, metrics.FromTrace(t.Metrics))
	}
	if o.Trace != nil {
		max := o.TraceEventCap
		if max == 0 {
			max = DefaultTraceEventCap
		}
		t.Trace = &trace.Buffer{Max: max}
		tracers = append(tracers, t.Trace)
	}
	var tracer trace.Tracer
	switch len(tracers) {
	case 0:
		if o.Spans == nil {
			return nil, nil
		}
		return t, nil
	case 1:
		tracer = tracers[0]
	default:
		tracer = trace.Multi(tracers...)
	}
	med.SetTracer(tracer)
	return t, tracer
}

// truthSpec is what a trial's ground truth watches: the wire format,
// whether the oracle audits it, and the audit's view of the field.
type truthSpec struct {
	AFF    aff.Config
	Oracle bool
	// Topo and Visible are the oracle's density audit (oracle.Config).
	Topo    radio.Topology
	Visible func(sender, v radio.NodeID) bool
	// Retain and Unwrap are the tracker's (truth.Config).
	Retain time.Duration
	Unwrap func(payload []byte) ([]byte, bool)
}

// attachTruth wires a trial's ground truth: one truth.Tracker, built when
// the oracle or span tracing (Obs.Spans) wants it and installed on the
// medium's fate slot, with the oracle and the span tracer attached as its
// consumers — so each sent frame is decoded once and both see one
// lifecycle. The span tracer is parked in the trial capture for the fold.
// Either result is nil when not requested; callers must keep the nil fast
// path (never hand a nil *span.Tracer to an interface field).
func attachTruth(med *radio.Medium, o *Obs, t *TrialObs, spec truthSpec) (*oracle.Oracle, *span.Tracer, error) {
	spans := o != nil && o.Spans != nil && t != nil
	if !spec.Oracle && !spans {
		return nil, nil, nil
	}
	tr, err := truth.New(truth.Config{AFF: spec.AFF, Now: med.Engine().Now, Retain: spec.Retain, Unwrap: spec.Unwrap})
	if err != nil {
		return nil, nil, err
	}
	med.SetFateObserver(tr)
	var orc *oracle.Oracle
	if spec.Oracle {
		if orc, err = oracle.New(tr, oracle.Config{Topo: spec.Topo, Visible: spec.Visible}); err != nil {
			return nil, nil, err
		}
	}
	var sp *span.Tracer
	if spans {
		sp = span.New(tr)
		t.Spans = sp
	}
	return orc, sp, nil
}

// heapBuckets histograms event-loop sizes across trials; trials range
// from a few thousand events (quick ablations) to tens of millions
// (full-length continuous workloads).
var heapBuckets = []float64{64, 256, 1024, 4096, 16384, 65536}

// collectTrial records one trial's event-loop accounting and each
// radio's energy and transmitted bits.
func collectTrial(reg *metrics.Registry, st sim.Stats, radios []*radio.Radio) {
	reg.Counter("sim_events_processed_total", "").Add(int64(st.Processed))
	reg.Counter("sim_events_scheduled_total", "").Add(int64(st.Scheduled))
	reg.Counter("sim_timers_cancelled_total", "").Add(int64(st.Cancelled))
	reg.Counter("sim_heap_compactions_total", "").Add(int64(st.Compactions))
	reg.Gauge("sim_heap_high_water", "").SetMax(float64(st.HeapHighWater))
	reg.Histogram("sim_heap_high_water_per_trial", "", heapBuckets).Observe(float64(st.HeapHighWater))
	for _, r := range radios {
		m := r.Meter()
		reg.Histogram("node_energy_joules", "", energyBuckets).Observe(energy.DefaultModel().Joules(m))
		reg.Counter("radio_tx_bits_total", metrics.Node(int(r.ID()))).Add(m.TxBits)
	}
}

// collectAFF records one receiver's reassembly outcomes beside the ground
// truth, under a label identifying the configuration (e.g.
// "sel=uniform,bits=4"). The observed identifier-collision count is the
// packets the truth reassembler delivered that the AFF identifier alone
// lost; predicted is the model's Equation 4 rate for the same setup, kept
// adjacent so a snapshot carries the observed-vs-predicted pair.
func collectAFF(reg *metrics.Registry, label string, affSt, truthSt aff.Stats, predicted float64) {
	reg.Counter("aff_fragments_in_total", label).Add(affSt.FragmentsIn)
	reg.Counter("aff_delivered_total", label).Add(affSt.Delivered)
	reg.Counter("aff_delivered_bits_total", label).Add(affSt.DeliveredBits)
	reg.Counter("aff_checksum_failures_total", label).Add(affSt.ChecksumFailures)
	reg.Counter("aff_conflicts_total", label).Add(affSt.Conflicts)
	reg.Counter("aff_timeouts_total", label).Add(affSt.Timeouts)
	reg.Counter("aff_malformed_total", label).Add(affSt.Malformed)
	reg.Counter("aff_truth_delivered_total", label).Add(truthSt.Delivered)
	lost := truthSt.Delivered - affSt.Delivered
	if lost < 0 {
		lost = 0
	}
	reg.Counter("aff_id_collisions_observed_total", label).Add(lost)
	reg.Gauge("aff_collision_rate_predicted", label).Set(predicted)
}

// energyBuckets histograms per-node radio energy in joules. Two simulated
// minutes of continuous transmission under the default model spend a few
// joules; mostly-listening nodes spend well under one.
var energyBuckets = []float64{0.25, 0.5, 1, 1.5, 2, 3, 5, 8, 12, 20, 50}

// foldTrialObs merges per-trial captures into o in trial-index order:
// registries via Merge, trace buffers via Replay behind a Custom
// "trial-start" marker carrying note(i). Sequential and parallel runs of
// the same config therefore produce identical metrics and identical event
// streams. A nil o or trials without captures fold to nothing.
func foldTrialObs(o *Obs, caps []*TrialObs, note func(i int) string) error {
	if o == nil {
		return nil
	}
	for i, c := range caps {
		if c == nil {
			continue
		}
		if o.Metrics != nil && c.Metrics != nil {
			if err := o.Metrics.Merge(c.Metrics); err != nil {
				return fmt.Errorf("experiment: merging trial %d metrics: %w", i, err)
			}
		}
		if o.Trace != nil && c.Trace != nil {
			o.Trace.Record(trace.Event{Kind: trace.Custom, Note: "trial-start " + note(i)})
			c.Trace.Replay(o.Trace)
			if d := c.Trace.Dropped(); d > 0 {
				o.traceDropped += d
				o.Trace.Record(trace.Event{Kind: trace.Custom,
					Note: fmt.Sprintf("trial-truncated dropped=%d", d)})
			}
		}
		if o.Spans != nil && c.Spans != nil {
			// The job index disambiguates trials sharing a cell label.
			o.Spans.AddTrial(fmt.Sprintf("%s#%d", note(i), i), c.Spans)
		}
	}
	return nil
}

// RunHooks carries per-trial progress callbacks through an experiment
// config to the runner. Hooks observe wall-clock reality (completion
// order, elapsed time), so unlike Obs their output is not deterministic;
// they exist for progress display and run manifests, never for results.
type RunHooks struct {
	// OnProgress mirrors runner.Options.OnProgress.
	OnProgress func(completed, total int)
	// OnTrialTime mirrors runner.Options.OnTrialTime.
	OnTrialTime func(trial int, elapsed time.Duration)
}
