package density

import "time"

// CompletionObserver is the optional second half of a density estimator:
// besides hearing fragments (TEstimator.Observe), it can be told that an
// identifier's transaction is known complete — its final fragment was
// observed — and discount the identifier immediately instead of holding it
// for a flat idle gap.
//
// The node layer wires the reassembler's final-fragment signal to any
// estimator implementing this interface; estimators that don't implement
// it keep the pure idle-gap semantics unchanged.
type CompletionObserver interface {
	ObserveComplete(id uint64)
}

// Policy names a density-estimation policy for A/B comparison in the
// experiment harness.
type Policy string

const (
	// PolicyIdleGap is the original fragment-sampled EMA: an identifier
	// counts as active until it has gone unheard for the idle gap.
	PolicyIdleGap Policy = "idle-gap"
	// PolicyTurnover is the turnover-aware EMA: an identifier whose final
	// fragment was observed is discounted immediately; the idle gap remains
	// only as the fallback for transactions whose ending was never heard.
	PolicyTurnover Policy = "turnover"
)

// NewPolicy constructs the estimator a policy names, with the shared
// constructor defaults. Unknown policies return nil; callers validate.
func NewPolicy(p Policy, idleGap time.Duration, alpha float64, now func() time.Duration) TEstimator {
	switch p {
	case PolicyIdleGap:
		return New(idleGap, alpha, now)
	case PolicyTurnover:
		return NewTurnover(idleGap, alpha, now)
	default:
		return nil
	}
}

// TurnoverEstimator is the turnover-aware variant of Estimator. The flat
// idle-gap rule over-estimates T by 2-4x under fast transaction turnover:
// every identifier lingers a full idle gap after its last fragment, so a
// node hears several *recent* identifiers per *live* neighbor. This
// estimator removes an identifier the moment its transaction is known
// complete (ObserveComplete, driven by the reassembler observing the
// fragment that covers the final byte of the announced length), keeping
// the idle gap only for transactions whose final fragment was lost.
type TurnoverEstimator struct {
	idleGap time.Duration
	alpha   float64
	now     func() time.Duration

	heard  heardSet
	ema    float64
	seeded bool

	completions int64
}

var (
	_ TEstimator         = (*TurnoverEstimator)(nil)
	_ CompletionObserver = (*TurnoverEstimator)(nil)
)

// NewTurnover returns a turnover-aware estimator reading virtual time from
// now. Non-positive idleGap or alpha outside (0, 1] select the defaults.
func NewTurnover(idleGap time.Duration, alpha float64, now func() time.Duration) *TurnoverEstimator {
	if idleGap <= 0 {
		idleGap = DefaultIdleGap
	}
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultAlpha
	}
	if now == nil {
		now = func() time.Duration { return 0 }
	}
	return &TurnoverEstimator{idleGap: idleGap, alpha: alpha, now: now}
}

// Observe records a fragment heard with the given transaction identifier.
func (e *TurnoverEstimator) Observe(id uint64) {
	e.heard.observe(id, e.now(), e.idleGap)
	e.update()
}

// ObserveComplete records that id's transaction is known complete and
// discounts the identifier immediately. Completion of an identifier not
// currently active (already pruned, or never heard) is a no-op.
func (e *TurnoverEstimator) ObserveComplete(id uint64) {
	e.heard.expire(e.now(), e.idleGap)
	if !e.heard.remove(id) {
		return
	}
	e.completions++
	e.update()
}

// update folds the instantaneous active count into the EMA.
func (e *TurnoverEstimator) update() {
	active := float64(len(e.heard))
	if !e.seeded {
		e.ema = active
		e.seeded = true
		return
	}
	e.ema = e.alpha*active + (1-e.alpha)*e.ema
}

// Active returns the instantaneous count of identifiers believed active:
// heard within the idle gap and not known complete.
func (e *TurnoverEstimator) Active() int {
	e.heard.expire(e.now(), e.idleGap)
	return len(e.heard)
}

// Completions reports identifiers discounted by the completion signal —
// the observability counter distinguishing turnover discounting from
// idle-gap expiry.
func (e *TurnoverEstimator) Completions() int64 { return e.completions }

// Estimate returns the smoothed transaction density, never below 1.
func (e *TurnoverEstimator) Estimate() float64 {
	if !e.seeded || e.ema < 1 {
		return 1
	}
	return e.ema
}

// Window returns the paper's adaptive listening window, 2*ceil(T).
func (e *TurnoverEstimator) Window() int {
	t := e.Estimate()
	n := int(t)
	if float64(n) < t {
		n++
	}
	return 2 * n
}
