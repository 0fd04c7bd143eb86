package runner

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// Pool is a persistent bounded worker pool for barrier-style fan-out: Each
// partitions an index range across long-lived workers and returns only when
// every index has been processed. It exists for callers that fan out the
// same shape of work thousands of times (the sharded engine runs two Each
// calls per lookahead window), where spawning goroutines per call — what
// Map does, correctly, for trial-granularity work — would dominate the
// work itself.
//
// Determinism contract: Each imposes no ordering between indices, so fn
// must write only state owned by its index (the one-engine-per-goroutine
// rule, one level down: one-tile-per-index). Under that rule the result of
// an Each round is independent of the worker count, including the
// workers<=1 inline path.
type Pool struct {
	workers int

	mu   sync.Mutex
	jobs chan poolJob
	wg   sync.WaitGroup

	// Round state, reset by each Each under mu. round is pool-owned so a
	// round allocates nothing; reusing it is safe because Each holds mu
	// until round.Wait returns.
	round     sync.WaitGroup
	panicOnce sync.Once
	panicked  *PanicError
}

type poolJob struct {
	fn    func(int)
	index int
}

// NewPool starts a pool of the given size. Sizes <= 1 run everything inline
// on the calling goroutine (no workers are started). Close releases the
// workers; a Pool must not be used after Close.
func NewPool(workers int) *Pool {
	p := &Pool{workers: workers}
	if workers <= 1 {
		return p
	}
	p.jobs = make(chan poolJob)
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for j := range p.jobs {
				p.run(j)
			}
		}()
	}
	return p
}

// Workers reports the pool's concurrency (1 for the inline pool).
func (p *Pool) Workers() int {
	if p.workers <= 1 {
		return 1
	}
	return p.workers
}

// run executes one job, converting a panic into the round's recorded
// failure so the barrier in Each can re-raise it on the caller.
func (p *Pool) run(j poolJob) {
	defer p.round.Done()
	defer func() {
		if r := recover(); r != nil {
			p.panicOnce.Do(func() {
				p.panicked = &PanicError{Value: r, Stack: debug.Stack()}
			})
		}
	}()
	j.fn(j.index)
}

// Each runs fn(i) for every i in [0, n) and returns when all calls have
// finished. Calls may run concurrently on the pool's workers; fn must not
// share mutable state between indices. A panic inside fn is captured and
// re-raised on the calling goroutine after the barrier, so a failing tile
// fails the trial (and is caught by Map's per-trial recovery) instead of
// killing the process from a worker goroutine.
//
// Each is not reentrant: one Each round at a time per Pool.
func (p *Pool) Each(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if p.jobs == nil {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.panicOnce = sync.Once{}
	p.panicked = nil
	p.round.Add(n)
	for i := 0; i < n; i++ {
		p.jobs <- poolJob{fn: fn, index: i}
	}
	p.round.Wait()
	if p.panicked != nil {
		panic(fmt.Errorf("runner: pool worker: %w", p.panicked))
	}
}

// Close shuts the workers down. Safe to call on an inline pool; must not
// race with an in-flight Each.
func (p *Pool) Close() {
	if p.jobs == nil {
		return
	}
	close(p.jobs)
	p.wg.Wait()
	p.jobs = nil
}
