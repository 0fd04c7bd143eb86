// Package density estimates the transaction density T — "the average
// number of concurrent transactions visible at any single point in the
// network" (Section 4.1).
//
// T drives everything in the paper: Equation 4's collision probability, the
// optimal identifier size, and the listening heuristic's window ("we
// adaptively define 'recently' as within the most recent 2T transactions;
// each node can estimate T based on the number of concurrent transactions
// it observes", Section 5.1).
//
// A node cannot see transaction boundaries directly; it hears fragments.
// The estimator treats an identifier as belonging to an active transaction
// while fragments carrying it keep arriving within an idle gap, and smooths
// the instantaneous count of active identifiers with an exponential moving
// average.
package density

import "time"

// DefaultIdleGap is how long an identifier may go unheard before its
// transaction is presumed over. It should be a few frame airtimes; 100ms
// comfortably covers back-to-back 27-byte frames at tens of kbit/s.
const DefaultIdleGap = 100 * time.Millisecond

// DefaultAlpha is the EMA smoothing weight given to each new observation.
const DefaultAlpha = 0.1

// Estimator tracks concurrent transactions from an observed fragment
// stream.
type Estimator struct {
	idleGap time.Duration
	alpha   float64
	now     func() time.Duration

	heard  heardSet
	ema    float64
	seeded bool
}

// New returns an estimator reading virtual time from now. Non-positive
// idleGap or alpha outside (0, 1] select the defaults.
func New(idleGap time.Duration, alpha float64, now func() time.Duration) *Estimator {
	if idleGap <= 0 {
		idleGap = DefaultIdleGap
	}
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultAlpha
	}
	if now == nil {
		now = func() time.Duration { return 0 }
	}
	return &Estimator{idleGap: idleGap, alpha: alpha, now: now}
}

// Observe records a fragment heard with the given transaction identifier.
func (e *Estimator) Observe(id uint64) {
	e.heard.observe(id, e.now(), e.idleGap)
	active := float64(len(e.heard))
	if !e.seeded {
		e.ema = active
		e.seeded = true
		return
	}
	e.ema = e.alpha*active + (1-e.alpha)*e.ema
}

// Active returns the instantaneous count of identifiers heard within the
// idle gap.
func (e *Estimator) Active() int {
	e.heard.expire(e.now(), e.idleGap)
	return len(e.heard)
}

// Estimate returns the smoothed transaction density, never below 1 (a node
// estimating T always counts at least its own transaction).
func (e *Estimator) Estimate() float64 {
	if !e.seeded || e.ema < 1 {
		return 1
	}
	return e.ema
}

// Window returns the paper's adaptive listening window: the most recent 2T
// transactions, with T rounded up.
func (e *Estimator) Window() int {
	t := e.Estimate()
	n := int(t)
	if float64(n) < t {
		n++
	}
	return 2 * n
}
