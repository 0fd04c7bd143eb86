package aff

import (
	"testing"
	"time"

	"retri/internal/core"
)

// seqFragmenter draws sequential identifiers so every transaction in a
// test gets a distinct, predictable id.
func seqFragmenter(t *testing.T, cfg Config) *Fragmenter {
	t.Helper()
	f, err := NewFragmenter(cfg, core.NewSequentialSelector(cfg.Space, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// startPartial ingests all but the final fragment of one fresh
// transaction and returns its identifier.
func startPartial(t *testing.T, f *Fragmenter, r *Reassembler) uint64 {
	t.Helper()
	tx, err := f.Fragment(make([]byte, 80))
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range tx.Fragments[:len(tx.Fragments)-1] {
		r.Ingest(fr.Bytes)
	}
	return tx.ID
}

func TestCapEvictsOldestFirst(t *testing.T) {
	cfg := testConfig(9)
	cfg.ReassemblyTimeout = time.Hour // far away: only the cap evicts
	cfg.MaxPartials = 3
	now := time.Duration(0)
	f := seqFragmenter(t, cfg)
	r := NewReassembler(cfg, func() time.Duration { return now }, nil)

	var evicted, expired []uint64
	r.SetCapEvictHandler(func(id uint64) { evicted = append(evicted, id) })
	r.SetExpiryHandler(func(id uint64) { expired = append(expired, id) })

	ids := make([]uint64, 4)
	for i := range ids {
		now = time.Duration(i) * time.Millisecond
		ids[i] = startPartial(t, f, r)
	}
	if r.PendingCount() != 3 {
		t.Fatalf("PendingCount = %d, want cap of 3", r.PendingCount())
	}
	st := r.Stats()
	if st.CapEvictions != 1 || st.Timeouts != 0 {
		t.Errorf("CapEvictions/Timeouts = %d/%d, want 1/0 (distinct counters)",
			st.CapEvictions, st.Timeouts)
	}
	if st.PendingPeak != 3 {
		t.Errorf("PendingPeak = %d, want 3", st.PendingPeak)
	}
	// The oldest-activity partial — the first started — is the victim, and
	// both hooks hear about it.
	if len(evicted) != 1 || evicted[0] != ids[0] {
		t.Errorf("cap-evict hook saw %v, want [%d]", evicted, ids[0])
	}
	if len(expired) != 1 || expired[0] != ids[0] {
		t.Errorf("onExpire hook saw %v on cap eviction, want [%d]", expired, ids[0])
	}
}

func TestCapRefreshedPartialSurvives(t *testing.T) {
	cfg := testConfig(9)
	cfg.ReassemblyTimeout = time.Hour
	cfg.MaxPartials = 2
	now := time.Duration(0)
	f := seqFragmenter(t, cfg)
	r := NewReassembler(cfg, func() time.Duration { return now }, nil)
	var evicted []uint64
	r.SetCapEvictHandler(func(id uint64) { evicted = append(evicted, id) })

	txA, err := f.Fragment(make([]byte, 80))
	if err != nil {
		t.Fatal(err)
	}
	// Fragmenting B and C reuses the fragmenter's storage.
	txA = clone(txA)
	r.Ingest(txA.Fragments[0].Bytes) // A born at t=0
	now = time.Millisecond
	idB := startPartial(t, f, r) // B born at t=1ms
	now = 2 * time.Millisecond
	r.Ingest(txA.Fragments[1].Bytes) // A refreshed at t=2ms

	now = 3 * time.Millisecond
	startPartial(t, f, r) // C forces an eviction

	if len(evicted) != 1 || evicted[0] != idB {
		t.Errorf("cap evicted %v, want the coldest partial B (%d), not refreshed A (%d)",
			evicted, idB, txA.ID)
	}
	if got := r.Stats().CapEvictions; got != 1 {
		t.Errorf("CapEvictions = %d, want 1", got)
	}
}

func TestCapZeroMeansUnbounded(t *testing.T) {
	cfg := testConfig(9)
	cfg.ReassemblyTimeout = time.Hour
	now := time.Duration(0)
	f := seqFragmenter(t, cfg)
	r := NewReassembler(cfg, func() time.Duration { return now }, nil)

	const n = 50
	for i := 0; i < n; i++ {
		now = time.Duration(i) * time.Millisecond
		startPartial(t, f, r)
	}
	st := r.Stats()
	if r.PendingCount() != n || st.CapEvictions != 0 {
		t.Errorf("pending/evictions = %d/%d with no cap, want %d/0",
			r.PendingCount(), st.CapEvictions, n)
	}
	if st.PendingPeak != n {
		t.Errorf("PendingPeak = %d, want %d", st.PendingPeak, n)
	}
}

func TestCapWorksWithoutTimeouts(t *testing.T) {
	// A nil clock disables idle timeouts, but the memory cap must still
	// hold: the expiry queue doubles as the (insertion-order) eviction
	// order at a constant clock.
	cfg := testConfig(9)
	cfg.MaxPartials = 2
	f := seqFragmenter(t, cfg)
	r := NewReassembler(cfg, nil, nil)
	var evicted []uint64
	r.SetCapEvictHandler(func(id uint64) { evicted = append(evicted, id) })

	ids := make([]uint64, 3)
	for i := range ids {
		ids[i] = startPartial(t, f, r)
	}
	if r.PendingCount() != 2 {
		t.Fatalf("PendingCount = %d, want 2", r.PendingCount())
	}
	if len(evicted) != 1 || evicted[0] != ids[0] {
		t.Errorf("cap evicted %v, want the first partial [%d]; insertion-order eviction broken",
			evicted, ids[0])
	}
	if got := r.Stats().Timeouts; got != 0 {
		t.Errorf("Timeouts = %d on cap eviction, want 0", got)
	}
}

func TestCapEvictedIDCanRestart(t *testing.T) {
	// After eviction, fresh fragments under the evicted identifier start a
	// clean transaction: the second attempt delivers normally.
	cfg := testConfig(9)
	cfg.ReassemblyTimeout = time.Hour
	cfg.MaxPartials = 1
	now := time.Duration(0)
	f := seqFragmenter(t, cfg)
	var got int
	r := NewReassembler(cfg, func() time.Duration { return now }, func(Packet) { got++ })

	startPartial(t, f, r) // victim
	now = time.Millisecond
	tx, err := f.Fragment(make([]byte, 80))
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range tx.Fragments {
		r.Ingest(fr.Bytes)
	}
	if got != 1 {
		t.Fatalf("delivered %d packets after eviction made room, want 1", got)
	}
	if r.PendingCount() != 0 {
		t.Errorf("PendingCount = %d after delivery, want 0", r.PendingCount())
	}
}
