// Package reasm is the partial-packet table behind every fragment
// reassembler in the repository. AFF and the static-address baseline
// differ only in how a fragment names its transaction — a short random
// identifier versus a unique (address, sequence) pair — so the table is
// generic over the key and owns everything else: the announced length
// and checksum, byte coverage, buffering of data fragments heard before
// their introduction, checksum verification of completed packets, the
// MaxPartials cap and the amortized idle-expiry queue. Adapters decode
// frames, derive keys and feed Intro and Data.
//
// The table allocates nothing per fragment in steady state. Partial
// packets are recycled through a free list together with their coverage,
// their early-fragment storage and their packet buffer. A delivered
// buffer is lent to OnDeliver for the call and reused afterwards.
package reasm

import (
	"time"

	"retri/internal/checksum"
	"retri/internal/frame"
	"retri/internal/poison"
)

// Stats counts reassembler outcomes. Conflicts and ChecksumFailures are the
// two ways an identifier collision surfaces at a receiver.
type Stats struct {
	// Delivered counts packets reassembled and checksum-verified.
	Delivered int64
	// DeliveredBits sums the payload bits of delivered packets (the
	// "useful bits received" of Equation 1).
	DeliveredBits int64
	// ChecksumFailures counts complete reassemblies whose checksum failed.
	ChecksumFailures int64
	// Conflicts counts transactions dropped for internal inconsistency:
	// two introductions disagreeing, overlapping fragments with different
	// bytes, or offsets beyond the announced length. It stays zero under
	// unique keys, which cannot collide.
	Conflicts int64
	// Timeouts counts partial packets evicted after inactivity.
	Timeouts int64
	// CapEvictions counts partial packets evicted to stay under the
	// MaxPartials memory cap — graceful degradation, not idle timeout,
	// so it is distinct from Timeouts.
	CapEvictions int64
	// PendingPeak is the high-water mark of concurrently-held partial
	// packets, the peak partial-state occupancy the chaos sweep reports.
	PendingPeak int64
	// FragmentsIn counts well-formed fragments ingested.
	FragmentsIn int64
	// Malformed counts undecodable frames.
	Malformed int64
}

// Config parameterizes a Table.
type Config struct {
	// Checksum verifies completed packets.
	Checksum checksum.Kind
	// Timeout evicts partial packets idle strictly longer than this; zero
	// disables idle expiry.
	Timeout time.Duration
	// MaxPartials caps concurrently-held partial packets by evicting the
	// one with the oldest activity; zero means unbounded.
	MaxPartials int
	// SharedKeys says distinct transactions can share a key, as AFF
	// identifiers do. A fragment that disagrees with held state is then
	// evidence of a collision and drops the transaction (Conflicts,
	// OnConflict). Under unique keys disagreement can only mean
	// corruption, and the fragment is ignored.
	SharedKeys bool
}

// maxEarlyFragments bounds pre-introduction buffering per key so a lost
// introduction cannot pin unbounded state.
const maxEarlyFragments = 1 << 12

// Table holds partial packets keyed by K. The hooks are optional and are
// called with the key concerned.
type Table[K comparable] struct {
	// OnDeliver receives each verified packet with the introduction's
	// instrumentation trailer, nil when it had none. Both are table
	// memory, lent for the call: the table reuses the data buffer for a
	// later packet once OnDeliver returns, so a callee that keeps the
	// bytes copies them.
	OnDeliver func(key K, data []byte, truth *frame.Truth)
	// OnBadSum hears each packet rejected at completion by its checksum.
	OnBadSum func(K)
	// OnConflict hears each transaction dropped for disagreement
	// (SharedKeys only).
	OnConflict func(K)
	// OnComplete hears each data fragment that covers the final announced
	// byte: the sender has nothing left to transmit, whether or not the
	// packet verifies.
	OnComplete func(K)
	// OnExpire hears each partial packet evicted, by the idle timeout or
	// by the cap.
	OnExpire func(K)
	// OnCapEvict hears each cap eviction, immediately before OnExpire for
	// the same key.
	OnCapEvict func(K)

	cfg     Config
	now     func() time.Duration
	pending map[K]*partial
	stats   Stats

	// free holds retired partial packets for reuse.
	free []*partial

	// expq is the amortized expiry queue: every fragment pushes one
	// (key, activity-time) entry, and activity times are drawn from the
	// monotone virtual clock, so the queue is sorted by construction. A
	// sweep pops due entries and evicts only those whose partial packet
	// saw no later activity — O(1) amortized per fragment.
	expq     []entry[K]
	expqHead int
}

// partial accumulates one key's fragments. Until the introduction
// announces the length (announced), data fragments wait in early.
type partial struct {
	announced bool
	buf       []byte
	covered   []bool
	gotBytes  int
	sum       uint16
	truth     frame.Truth
	hasTruth  bool

	// early records data fragments that arrive before the introduction;
	// their payloads sit back to back in earlyBytes.
	early      []piece
	earlyBytes []byte

	lastActivity time.Duration
}

// piece locates one early fragment: its packet offset and its length in
// earlyBytes.
type piece struct{ off, n int }

// entry marks one key's activity for the expiry queue.
type entry[K comparable] struct {
	key K
	at  time.Duration
}

// New returns an empty table. now supplies virtual time for the idle
// timeout; a nil now disables it.
func New[K comparable](cfg Config, now func() time.Duration) *Table[K] {
	if now == nil {
		now = func() time.Duration { return 0 }
		cfg.Timeout = 0
	}
	return &Table[K]{cfg: cfg, now: now, pending: make(map[K]*partial)}
}

// Stats returns the counters. Adapters count FragmentsIn and Malformed
// through it, since only they decode.
func (t *Table[K]) Stats() *Stats { return &t.stats }

// Len reports keys with partial state.
func (t *Table[K]) Len() int { return len(t.pending) }

// Intro records key's announced length and checksum, then replays any
// data fragments buffered ahead of it. truth, when non-nil, is copied. A
// duplicate introduction is harmless; a disagreeing one drops the
// transaction under SharedKeys.
func (t *Table[K]) Intro(key K, totalLen int, sum uint16, truth *frame.Truth) {
	p := t.touch(key)
	if p.announced {
		if len(p.buf) != totalLen || p.sum != sum {
			t.disagree(key, p)
		}
		return
	}
	p.announced = true
	p.buf = resize(p.buf, totalLen)
	p.covered = resize(p.covered, totalLen)
	clear(p.covered)
	p.sum = sum
	if truth != nil {
		p.truth, p.hasTruth = *truth, true
	}
	start := 0
	for _, e := range p.early {
		if !t.merge(key, p, e.off, p.earlyBytes[start:start+e.n]) {
			return
		}
		start += e.n
	}
	p.early, p.earlyBytes = p.early[:0], p.earlyBytes[:0]
	t.complete(key, p)
}

// Data merges one data fragment, buffering a copy of it (up to a bound)
// until the introduction arrives — on a FIFO radio reordering is
// impossible, but the introduction frame itself can be lost. The table
// never retains payload.
func (t *Table[K]) Data(key K, offset int, payload []byte) {
	p := t.touch(key)
	if !p.announced {
		if len(p.early) < maxEarlyFragments {
			p.early = append(p.early, piece{off: offset, n: len(payload)})
			p.earlyBytes = append(p.earlyBytes, payload...)
		}
		return
	}
	if t.merge(key, p, offset, payload) {
		t.complete(key, p)
	}
}

// merge copies a fragment into a partial packet of known length. It
// reports false when disagreement dropped the state.
func (t *Table[K]) merge(key K, p *partial, off int, payload []byte) bool {
	end := off + len(payload)
	if end > len(p.buf) {
		return t.disagree(key, p)
	}
	for i, b := range payload {
		if p.covered[off+i] && p.buf[off+i] != b {
			return t.disagree(key, p)
		}
	}
	for i, b := range payload {
		if !p.covered[off+i] {
			p.covered[off+i] = true
			p.gotBytes++
		}
		p.buf[off+i] = b
	}
	if end == len(p.buf) && t.OnComplete != nil {
		// Fragments go out in offset order, so the one covering the last
		// announced byte ends the transaction on air.
		t.OnComplete(key)
	}
	return true
}

// disagree handles a fragment that contradicts held state and reports
// whether the state survives: under SharedKeys the transaction is
// dropped, otherwise only the fragment is.
func (t *Table[K]) disagree(key K, p *partial) bool {
	if !t.cfg.SharedKeys {
		return true
	}
	delete(t.pending, key)
	t.stats.Conflicts++
	if t.OnConflict != nil {
		t.OnConflict(key)
	}
	t.retire(p)
	return false
}

// complete delivers or rejects a fully covered packet.
func (t *Table[K]) complete(key K, p *partial) {
	if p.gotBytes != len(p.buf) {
		return
	}
	delete(t.pending, key)
	if checksum.Sum(t.cfg.Checksum, p.buf) != p.sum {
		t.stats.ChecksumFailures++
		if t.OnBadSum != nil {
			t.OnBadSum(key)
		}
		t.retire(p)
		return
	}
	t.stats.Delivered++
	t.stats.DeliveredBits += int64(8 * len(p.buf))
	if t.OnDeliver != nil {
		var truth *frame.Truth
		if p.hasTruth {
			truth = &p.truth
		}
		t.OnDeliver(key, p.buf, truth)
		poison.Fill(p.buf)
	}
	t.retire(p)
}

// touch returns key's partial packet, creating it (under the cap) if
// needed, and records activity: it stamps the state and appends an
// expiry-queue entry. The cap needs the queue even with timeouts disabled
// — it is the eviction order.
func (t *Table[K]) touch(key K) *partial {
	p, ok := t.pending[key]
	if !ok {
		if t.cfg.MaxPartials > 0 && len(t.pending) >= t.cfg.MaxPartials {
			t.evictOldest()
		}
		if n := len(t.free); n > 0 {
			p = t.free[n-1]
			t.free[n-1] = nil
			t.free = t.free[:n-1]
		} else {
			p = &partial{}
		}
		t.pending[key] = p
		if n := int64(len(t.pending)); n > t.stats.PendingPeak {
			t.stats.PendingPeak = n
		}
	}
	p.lastActivity = t.now()
	if t.cfg.Timeout > 0 || t.cfg.MaxPartials > 0 {
		t.expq = append(t.expq, entry[K]{key: key, at: p.lastActivity})
	}
	return p
}

// retire clears a partial packet that has left the pending map and puts
// it on the free list. Its storage is kept for reuse; nothing else of
// its old key survives.
func (t *Table[K]) retire(p *partial) {
	*p = partial{
		buf:        p.buf[:0],
		covered:    p.covered[:0],
		early:      p.early[:0],
		earlyBytes: p.earlyBytes[:0],
	}
	t.free = append(t.free, p)
}

// resize returns s with length n, reusing its storage when it is large
// enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// live returns the partial packet a queue entry names when the entry
// still marks its latest activity; an entry made stale by later activity
// is simply discarded (that activity pushed its own entry).
func (t *Table[K]) live(e entry[K]) (*partial, bool) {
	p, ok := t.pending[e.key]
	return p, ok && p.lastActivity == e.at
}

// evictOldest removes the partial packet with the oldest activity: the
// first live queue entry names it, deterministically for a given ingest
// order. OnCapEvict fires first, then OnExpire, so "transaction
// abandoned" consumers hear cap evictions exactly like timeouts.
func (t *Table[K]) evictOldest() {
	for t.expqHead < len(t.expq) {
		e := t.expq[t.expqHead]
		t.expqHead++
		p, ok := t.live(e)
		if !ok {
			continue
		}
		delete(t.pending, e.key)
		t.stats.CapEvictions++
		if t.OnCapEvict != nil {
			t.OnCapEvict(e.key)
		}
		if t.OnExpire != nil {
			t.OnExpire(e.key)
		}
		t.retire(p)
		break
	}
	t.compact()
}

// Sweep evicts partial packets idle strictly longer than the timeout.
// Each queue entry is examined once ever, so the amortized cost per
// fragment is O(1).
func (t *Table[K]) Sweep() {
	if t.cfg.Timeout <= 0 {
		return
	}
	now := t.now()
	for t.expqHead < len(t.expq) {
		e := t.expq[t.expqHead]
		if now-e.at <= t.cfg.Timeout {
			break
		}
		t.expqHead++
		p, ok := t.live(e)
		if !ok {
			continue
		}
		delete(t.pending, e.key)
		t.stats.Timeouts++
		if t.OnExpire != nil {
			t.OnExpire(e.key)
		}
		t.retire(p)
	}
	t.compact()
}

// compact reclaims the consumed queue prefix once it dominates the slice.
func (t *Table[K]) compact() {
	if t.expqHead < 64 || t.expqHead*2 < len(t.expq) {
		return
	}
	n := copy(t.expq, t.expq[t.expqHead:])
	t.expq = t.expq[:n]
	t.expqHead = 0
}

// NextExpiry reports the earliest virtual time at which a partial packet
// could expire, and whether any timeout is outstanding. The time is when
// eviction becomes possible, not a promise that state will still be
// stale then.
func (t *Table[K]) NextExpiry() (time.Duration, bool) {
	if t.cfg.Timeout <= 0 || t.expqHead >= len(t.expq) {
		return 0, false
	}
	return t.expq[t.expqHead].at + t.cfg.Timeout, true
}

// Reset discards all partial state, modelling a node crash: RAM is gone,
// the counters (which belong to the measurement harness) survive. The
// partial packets go to the free list and the table keeps its storage.
func (t *Table[K]) Reset() {
	for _, p := range t.pending {
		t.retire(p)
	}
	clear(t.pending)
	t.expq = t.expq[:0]
	t.expqHead = 0
}
