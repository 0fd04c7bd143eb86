package aff

import (
	"testing"
	"time"

	"retri/internal/core"
)

// partialTx ingests all but the final fragment of one fresh transaction,
// leaving exactly one pending reassembly.
func partialTx(t *testing.T, f *Fragmenter, r *Reassembler) {
	t.Helper()
	tx, err := f.Fragment(make([]byte, 80))
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range tx.Fragments[:len(tx.Fragments)-1] {
		r.Ingest(fr.Bytes)
	}
}

// TestSweepEvictsIdleState is the regression test for the timer-driven
// expiry path: a node that never hears another frame must still shed its
// stale partial-packet state when asked to sweep.
func TestSweepEvictsIdleState(t *testing.T) {
	cfg := testConfig(9)
	cfg.ReassemblyTimeout = 10 * time.Second
	now := time.Duration(0)
	f := newFragmenter(t, cfg, 21)
	r := NewReassembler(cfg, func() time.Duration { return now }, nil)

	partialTx(t, f, r)
	if r.PendingCount() != 1 {
		t.Fatalf("PendingCount = %d, want 1 partial", r.PendingCount())
	}
	next, ok := r.NextExpiry()
	if !ok || next != 10*time.Second {
		t.Fatalf("NextExpiry = (%v, %v), want (10s, true)", next, ok)
	}

	// At the deadline itself nothing is overdue (eviction requires strictly
	// exceeding the timeout) …
	now = next
	r.Sweep()
	if r.PendingCount() != 1 {
		t.Error("Sweep evicted state exactly at the deadline")
	}
	// … one instant later the partial is gone, with no ingest in between.
	now = next + 1
	r.Sweep()
	if r.PendingCount() != 0 {
		t.Errorf("PendingCount = %d after idle sweep, want 0", r.PendingCount())
	}
	if r.Stats().Timeouts != 1 {
		t.Errorf("Timeouts = %d, want 1", r.Stats().Timeouts)
	}
	if _, ok := r.NextExpiry(); ok {
		t.Error("NextExpiry still reports work after the queue drained")
	}
}

func TestLaterActivityDefersEviction(t *testing.T) {
	cfg := testConfig(9)
	cfg.ReassemblyTimeout = 10 * time.Second
	now := time.Duration(0)
	f := newFragmenter(t, cfg, 22)
	r := NewReassembler(cfg, func() time.Duration { return now }, nil)

	tx, err := f.Fragment(make([]byte, 80))
	if err != nil {
		t.Fatal(err)
	}
	r.Ingest(tx.Fragments[0].Bytes) // intro at t=0
	now = 8 * time.Second
	r.Ingest(tx.Fragments[1].Bytes) // refreshed before the deadline

	// The t=0 queue entry comes due, but the state saw later activity: the
	// stale entry must be discarded without evicting.
	now = 10*time.Second + 1
	r.Sweep()
	if r.PendingCount() != 1 {
		t.Fatal("refreshed partial evicted by a stale queue entry")
	}
	if r.Stats().Timeouts != 0 {
		t.Errorf("Timeouts = %d for live state", r.Stats().Timeouts)
	}
	// The refresh's own entry still stands.
	if next, ok := r.NextExpiry(); !ok || next != 18*time.Second {
		t.Errorf("NextExpiry = (%v, %v), want (18s, true)", next, ok)
	}
	now = 18*time.Second + 1
	r.Sweep()
	if r.PendingCount() != 0 || r.Stats().Timeouts != 1 {
		t.Errorf("pending = %d, timeouts = %d after true expiry, want 0/1",
			r.PendingCount(), r.Stats().Timeouts)
	}
}

func TestExpiryQueueCompacts(t *testing.T) {
	cfg := testConfig(9)
	cfg.ReassemblyTimeout = time.Second
	now := time.Duration(0)
	sel := core.NewSequentialSelector(cfg.Space, 0)
	f, err := NewFragmenter(cfg, sel, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReassembler(cfg, func() time.Duration { return now }, nil)

	const n = 200
	for i := 0; i < n; i++ {
		now = time.Duration(i) * time.Millisecond
		partialTx(t, f, r)
	}
	if r.PendingCount() != n {
		t.Fatalf("PendingCount = %d, want %d distinct identifiers", r.PendingCount(), n)
	}
	now += 2 * time.Second
	r.Sweep()
	if r.PendingCount() != 0 {
		t.Errorf("PendingCount = %d after mass expiry, want 0", r.PendingCount())
	}
	if got := r.Stats().Timeouts; got != n {
		t.Errorf("Timeouts = %d, want %d", got, n)
	}
	// Queue compaction itself is covered by the reasm table's tests.
	if _, ok := r.NextExpiry(); ok {
		t.Error("NextExpiry still reports work after mass expiry")
	}
}

func TestResetWipesStateKeepsStats(t *testing.T) {
	cfg := testConfig(9)
	cfg.ReassemblyTimeout = 10 * time.Second
	now := time.Duration(0)
	f := newFragmenter(t, cfg, 23)
	r := NewReassembler(cfg, func() time.Duration { return now }, nil)

	partialTx(t, f, r)
	now = 10*time.Second + 1
	r.Sweep() // one real timeout on the books
	partialTx(t, f, r)

	r.Reset()
	if r.PendingCount() != 0 {
		t.Errorf("PendingCount = %d after Reset", r.PendingCount())
	}
	if _, ok := r.NextExpiry(); ok {
		t.Error("NextExpiry outstanding after Reset")
	}
	if r.Stats().Timeouts != 1 {
		t.Errorf("Reset disturbed harness counters: Timeouts = %d, want 1", r.Stats().Timeouts)
	}
	// A post-reset partial expires normally — the queue restarts cleanly.
	partialTx(t, f, r)
	now += 20 * time.Second
	r.Sweep()
	if r.Stats().Timeouts != 2 {
		t.Errorf("post-Reset expiry broken: Timeouts = %d, want 2", r.Stats().Timeouts)
	}
}

func TestNoTimeoutNoQueue(t *testing.T) {
	// A nil clock disables timeouts entirely: no expiry. That the queue
	// does not grow is covered by the reasm table's tests.
	cfg := testConfig(9)
	f := newFragmenter(t, cfg, 24)
	r := NewReassembler(cfg, nil, nil)
	partialTx(t, f, r)
	if _, ok := r.NextExpiry(); ok {
		t.Error("NextExpiry reports work with timeouts disabled")
	}
	r.Sweep()
	if r.PendingCount() != 1 {
		t.Error("Sweep evicted state with timeouts disabled")
	}
}
