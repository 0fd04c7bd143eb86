//go:build race

package retri

// The race detector's instrumentation changes escape decisions, so heap
// allocation counts are only budgeted in normal builds.
func init() { raceEnabled = true }
