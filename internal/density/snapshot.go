package density

import "retri/internal/metrics"

// SnapshotInto publishes the estimator's current state as gauges on reg
// under the given label (the harness's k=v convention, e.g. "node=0").
// Values derive only from the estimator's deterministic state and the
// virtual clock, and the registry snapshots in sorted key order, so the
// published numbers are byte-stable across runs and parallelism levels.
func (e *Estimator) SnapshotInto(reg *metrics.Registry, label string) {
	reg.Gauge("density_estimate", label).Set(e.Estimate())
	reg.Gauge("density_active", label).Set(float64(e.Active()))
	reg.Gauge("density_window", label).Set(float64(e.Window()))
}

// SnapshotInto publishes the interval estimator's state; see
// Estimator.SnapshotInto.
func (e *IntervalEstimator) SnapshotInto(reg *metrics.Registry, label string) {
	reg.Gauge("density_estimate", label).Set(e.Estimate())
	reg.Gauge("density_active", label).Set(float64(len(e.active)))
	reg.Gauge("density_window", label).Set(float64(e.Window()))
}

// SnapshotInto publishes the turnover estimator's state plus its
// completion-discount counter; see Estimator.SnapshotInto.
func (e *TurnoverEstimator) SnapshotInto(reg *metrics.Registry, label string) {
	reg.Gauge("density_estimate", label).Set(e.Estimate())
	reg.Gauge("density_active", label).Set(float64(e.Active()))
	reg.Gauge("density_window", label).Set(float64(e.Window()))
	reg.Counter("density_completions_total", label).Add(e.completions)
}

// Snapshotter is satisfied by every estimator in this package; harnesses
// hold a TEstimator and publish through this interface without knowing the
// concrete policy.
type Snapshotter interface {
	SnapshotInto(reg *metrics.Registry, label string)
}

var (
	_ Snapshotter = (*Estimator)(nil)
	_ Snapshotter = (*IntervalEstimator)(nil)
	_ Snapshotter = (*TurnoverEstimator)(nil)
)

// Reset wipes all learned state, modelling a node crash: a restarted node
// relearns the channel from nothing. The estimate returns to its floor of
// 1 until fresh observations arrive. node.AFFDriver.Crash calls this
// through an interface assertion, so estimators now genuinely survive the
// crash/restart cycle instead of carrying pre-crash state across it.
func (e *Estimator) Reset() {
	e.heard = e.heard[:0]
	e.ema = 0
	e.seeded = false
}

// Reset wipes all learned state; see Estimator.Reset.
func (e *IntervalEstimator) Reset() {
	e.active = make(map[uint64]*interval)
	e.closed = nil
}

// Reset wipes all learned state; see Estimator.Reset. The completion
// counter belongs to the measurement harness and survives.
func (e *TurnoverEstimator) Reset() {
	e.heard = e.heard[:0]
	e.ema = 0
	e.seeded = false
}
