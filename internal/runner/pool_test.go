package runner

import (
	"strings"
	"sync/atomic"
	"testing"
)

// TestPoolEachCoversEveryIndex: every index in [0, n) must be processed
// exactly once, at any worker count including the inline path.
func TestPoolEachCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7} {
		p := NewPool(workers)
		const n = 100
		var hits [n]int32
		p.Each(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Errorf("workers=%d: index %d processed %d times, want 1", workers, i, h)
			}
		}
		p.Close()
	}
}

// TestPoolEachIsABarrier: results written by one Each round must be visible
// to the caller after it returns, round after round on the same pool.
func TestPoolEachIsABarrier(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	vals := make([]int, 32)
	for round := 1; round <= 5; round++ {
		round := round
		p.Each(len(vals), func(i int) { vals[i] = round * (i + 1) })
		for i, v := range vals {
			if v != round*(i+1) {
				t.Fatalf("round %d: vals[%d] = %d, want %d", round, i, v, round*(i+1))
			}
		}
	}
}

// TestPoolEachPanicPropagates: a panic on a worker must surface on the
// calling goroutine with the original value and stack preserved, and the
// pool must remain usable afterwards.
func TestPoolEachPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := NewPool(workers)
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
				if !strings.Contains(panicMsg(r), "tile 3 exploded") {
					t.Errorf("workers=%d: recovered %v, want the original panic value", workers, r)
				}
			}()
			p.Each(8, func(i int) {
				if i == 3 {
					panic("tile 3 exploded")
				}
			})
		}()
		// The pool survives the failed round.
		var n int32
		p.Each(4, func(int) { atomic.AddInt32(&n, 1) })
		if n != 4 {
			t.Errorf("workers=%d: pool unusable after panic: %d/4 ran", workers, n)
		}
		p.Close()
	}
}

// panicMsg stringifies a recovered value for assertions.
func panicMsg(v any) string {
	if err, ok := v.(error); ok {
		return err.Error()
	}
	if s, ok := v.(string); ok {
		return s
	}
	return ""
}

// TestPoolZeroAndNegativeN are no-ops.
func TestPoolZeroAndNegativeN(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	p.Each(0, func(int) { t.Error("fn called for n=0") })
	p.Each(-3, func(int) { t.Error("fn called for n<0") })
}

// TestPoolEachAllocatesNothing: a warmed round on real workers allocates
// nothing, so the sharded engine's two rounds per window cost no garbage.
func TestPoolEachAllocatesNothing(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var hits [2]int
	fn := func(i int) { hits[i]++ }
	if allocs := testing.AllocsPerRun(100, func() { p.Each(len(hits), fn) }); allocs != 0 {
		t.Errorf("Each allocated %.1f times per round, want 0", allocs)
	}
}
