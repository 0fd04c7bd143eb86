package reasm

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"retri/internal/checksum"
	"retri/internal/frame"
)

// clock is a settable virtual clock.
type clock struct{ now time.Duration }

func (c *clock) Now() time.Duration { return c.now }

// packet is the payload every test reassembles: two four-byte fragments.
var packet = []byte("abcdefgh")

func sumOf(b []byte) uint16 { return checksum.Sum(checksum.Internet, b) }

// recorder logs every hook as "hook:key" in call order.
type recorder struct{ log []string }

func (r *recorder) hook(name string) func(string) {
	return func(k string) { r.log = append(r.log, name+":"+k) }
}

func newTable(cfg Config, c *clock) (*Table[string], *recorder) {
	cfg.Checksum = checksum.Internet
	var now func() time.Duration
	if c != nil {
		now = c.Now
	}
	t := New[string](cfg, now)
	rec := &recorder{}
	t.OnDeliver = func(k string, data []byte, _ *frame.Truth) {
		rec.log = append(rec.log, "deliver:"+k+":"+string(data))
	}
	t.OnBadSum = rec.hook("badsum")
	t.OnConflict = rec.hook("conflict")
	t.OnComplete = rec.hook("complete")
	t.OnExpire = rec.hook("expire")
	t.OnCapEvict = rec.hook("capevict")
	return t, rec
}

// partialTx starts key's packet and leaves its last fragment missing.
func partialTx(t *Table[string], key string) {
	t.Intro(key, len(packet), sumOf(packet), nil)
	t.Data(key, 0, packet[:4])
}

func TestDisagreementSemantics(t *testing.T) {
	// Each case puts one disagreeing fragment between a valid first half
	// and the valid second half. Shared keys treat it as a collision: the
	// transaction is dropped and the second half starts nothing that can
	// complete. Unique keys treat it as corruption: it is ignored and the
	// packet still delivers.
	cases := []struct {
		name string
		bad  func(t *Table[string])
	}{
		{"second introduction", func(t *Table[string]) { t.Intro("k", 9, sumOf(packet), nil) }},
		{"different checksum", func(t *Table[string]) { t.Intro("k", len(packet), sumOf(packet)+1, nil) }},
		{"overlap with different bytes", func(t *Table[string]) { t.Data("k", 2, []byte("XY")) }},
		{"overrun", func(t *Table[string]) { t.Data("k", 6, []byte("ghij")) }},
	}
	for _, tc := range cases {
		for _, shared := range []bool{true, false} {
			tb, rec := newTable(Config{SharedKeys: shared}, nil)
			tb.Intro("k", len(packet), sumOf(packet), nil)
			tb.Data("k", 0, packet[:4])
			tc.bad(tb)
			tb.Data("k", 4, packet[4:])
			st := tb.Stats()
			if shared {
				if st.Conflicts != 1 || st.Delivered != 0 {
					t.Errorf("%s, shared keys: conflicts/delivered = %d/%d, want 1/0",
						tc.name, st.Conflicts, st.Delivered)
				}
				if len(rec.log) == 0 || rec.log[0] != "conflict:k" {
					t.Errorf("%s, shared keys: hooks %v, want conflict:k first", tc.name, rec.log)
				}
				continue
			}
			want := []string{"complete:k", "deliver:k:abcdefgh"}
			if st.Conflicts != 0 || st.Delivered != 1 || !slices.Equal(rec.log, want) {
				t.Errorf("%s, unique keys: conflicts/delivered = %d/%d, hooks %v; want 0/1, %v",
					tc.name, st.Conflicts, st.Delivered, rec.log, want)
			}
		}
	}
}

func TestDuplicatesAreHarmless(t *testing.T) {
	tb, rec := newTable(Config{SharedKeys: true}, nil)
	tb.Intro("k", len(packet), sumOf(packet), nil)
	tb.Intro("k", len(packet), sumOf(packet), nil)
	tb.Data("k", 0, packet[:4])
	tb.Data("k", 0, packet[:4])
	tb.Data("k", 4, packet[4:])
	if st := tb.Stats(); st.Delivered != 1 || st.DeliveredBits != 64 || st.Conflicts != 0 {
		t.Errorf("stats %+v, want one 64-bit delivery and no conflict", *st)
	}
	if tb.Len() != 0 {
		t.Errorf("Len = %d after delivery, want 0", tb.Len())
	}
	if !slices.Contains(rec.log, "deliver:k:abcdefgh") {
		t.Errorf("hooks %v, want a delivery", rec.log)
	}
}

func TestEarlyFragmentsReplayAtIntroduction(t *testing.T) {
	tb, rec := newTable(Config{}, nil)
	tb.Data("k", 4, packet[4:])
	tb.Data("k", 0, packet[:4])
	if tb.Stats().Delivered != 0 {
		t.Fatal("delivered before the introduction announced a length")
	}
	tb.Intro("k", len(packet), sumOf(packet), nil)
	want := []string{"complete:k", "deliver:k:abcdefgh"}
	if !slices.Equal(rec.log, want) {
		t.Errorf("hooks %v, want %v", rec.log, want)
	}
}

func TestEarlyConflictDropsAtIntroduction(t *testing.T) {
	// Under shared keys a buffered fragment that overruns the length the
	// introduction later announces is a collision; the replay stops there.
	tb, rec := newTable(Config{SharedKeys: true}, nil)
	tb.Data("k", 6, []byte("ghij"))
	tb.Data("k", 0, packet[:4])
	tb.Intro("k", len(packet), sumOf(packet), nil)
	if !slices.Equal(rec.log, []string{"conflict:k"}) || tb.Len() != 0 {
		t.Errorf("hooks %v, Len %d; want [conflict:k], 0", rec.log, tb.Len())
	}
}

func TestChecksumFailure(t *testing.T) {
	tb, rec := newTable(Config{}, nil)
	tb.Intro("k", len(packet), sumOf(packet)+1, nil)
	tb.Data("k", 0, packet)
	st := tb.Stats()
	if st.ChecksumFailures != 1 || st.Delivered != 0 || tb.Len() != 0 {
		t.Errorf("failures/delivered/Len = %d/%d/%d, want 1/0/0",
			st.ChecksumFailures, st.Delivered, tb.Len())
	}
	if want := []string{"complete:k", "badsum:k"}; !slices.Equal(rec.log, want) {
		t.Errorf("hooks %v, want %v", rec.log, want)
	}
}

// TestDeliverCarriesTruth checks the trailer contract: OnDeliver sees the
// introduction's trailer in table memory, so a consumer copies it inside
// the callback, and a later packet without one on the recycled partial
// sees nil.
func TestDeliverCarriesTruth(t *testing.T) {
	tb, _ := newTable(Config{}, nil)
	truth := &frame.Truth{Node: 3, Seq: 7}
	var got []*frame.Truth
	var copied []frame.Truth
	tb.OnDeliver = func(_ string, _ []byte, tr *frame.Truth) {
		got = append(got, tr)
		if tr != nil {
			copied = append(copied, *tr)
		}
	}
	tb.Intro("k", len(packet), sumOf(packet), truth)
	tb.Data("k", 0, packet)
	tb.Intro("k", len(packet), sumOf(packet), nil)
	tb.Data("k", 0, packet)
	if len(got) != 2 || got[0] == nil || got[0] == truth || got[1] != nil {
		t.Fatalf("delivered trailers %v, want a table-owned copy then nil", got)
	}
	if copied[0] != *truth {
		t.Errorf("delivered truth %v, want the introduction's %v", copied[0], *truth)
	}
}

// TestRecycledPartialCarriesNoStaleState retires a partial packet by
// every path — delivery, checksum failure, conflict, timeout with early
// fragments buffered — and checks each time that the partial on the
// free list keeps only storage, and that the next key to draw it
// reassembles from its own fragments alone.
func TestRecycledPartialCarriesNoStaleState(t *testing.T) {
	c := &clock{}
	tb, rec := newTable(Config{Timeout: time.Second, SharedKeys: true}, c)
	truth := &frame.Truth{Node: 3, Seq: 7}
	retire := []struct {
		name string
		run  func(key string)
	}{
		{"delivered", func(k string) {
			tb.Intro(k, len(packet), sumOf(packet), truth)
			tb.Data(k, 0, packet)
		}},
		{"bad checksum", func(k string) {
			tb.Data(k, 0, []byte("ZZZZ"))
			tb.Intro(k, len(packet), 0x1234, truth)
			tb.Data(k, 4, []byte("YYYY"))
		}},
		{"conflict", func(k string) {
			tb.Intro(k, len(packet), 0x1234, truth)
			tb.Data(k, 0, []byte("ZZZZ"))
			tb.Data(k, 0, []byte("YYYY"))
		}},
		{"timeout with early fragments", func(k string) {
			tb.Data(k, 4, []byte("ZZZZ"))
			tb.Data(k, 0, []byte("YYYY"))
			c.now += 2 * time.Second
			tb.Sweep()
		}},
	}
	for i, tc := range retire {
		old := "old" + string(rune('0'+i))
		tc.run(old)
		if tb.Len() != 0 || len(tb.free) != 1 {
			t.Fatalf("%s: Len %d, free list %d; want the partial retired", tc.name, tb.Len(), len(tb.free))
		}
		p := tb.free[0]
		if p.announced || len(p.buf) != 0 || len(p.covered) != 0 || p.gotBytes != 0 || p.sum != 0 ||
			p.truth != (frame.Truth{}) || p.hasTruth || len(p.early) != 0 || len(p.earlyBytes) != 0 || p.lastActivity != 0 {
			t.Fatalf("%s: retired partial holds state %+v", tc.name, *p)
		}

		// The next transaction draws the same partial: a data fragment
		// first, so a stale announcement or coverage would show, then an
		// introduction without a trailer, so a stale one would show.
		rec.log = nil
		var truths []*frame.Truth
		tb.OnDeliver = func(k string, data []byte, tr *frame.Truth) {
			rec.log = append(rec.log, "deliver:"+k+":"+string(data))
			truths = append(truths, tr)
		}
		tb.Data("new", 0, packet[:4])
		if tb.pending["new"] != p {
			t.Fatalf("%s: new key did not reuse the retired partial", tc.name)
		}
		tb.Intro("new", len(packet), sumOf(packet), nil)
		if len(rec.log) != 0 {
			t.Fatalf("%s: hooks %v before the second half arrived", tc.name, rec.log)
		}
		tb.Data("new", 4, packet[4:])
		want := []string{"complete:new", "deliver:new:abcdefgh"}
		if !slices.Equal(rec.log, want) || len(truths) != 1 || truths[0] != nil {
			t.Errorf("%s: hooks %v, trailers %v; want %v with no trailer", tc.name, rec.log, truths, want)
		}
	}
}

// TestDeliveredBufferLentForTheCall pins the ownership rule: OnDeliver
// sees the whole packet, and once it returns the table takes the buffer
// back, so later transactions, delivered and not, reuse its storage. The
// table keeps only two buffers in play across fifty transactions, and
// every delivery still holds its own packet during its callback.
func TestDeliveredBufferLentForTheCall(t *testing.T) {
	tb, _ := newTable(Config{SharedKeys: true}, nil)
	buffers := map[*byte]bool{}
	var want []byte
	delivered := 0
	tb.OnDeliver = func(_ string, data []byte, _ *frame.Truth) {
		if !bytes.Equal(data, want) {
			t.Errorf("delivery %d holds %q, want %q", delivered, data, want)
		}
		buffers[&data[:cap(data)][0]] = true
		delivered++
	}
	wantDelivered := 0
	for i := 0; i < 50; i++ {
		pkt := []byte(fmt.Sprintf("packet-%02d", i))
		want = pkt
		key := string(rune('a' + i%3))
		switch i % 4 {
		case 0, 1: // delivered, in halves
			wantDelivered++
			tb.Intro(key, len(pkt), sumOf(pkt), nil)
			tb.Data(key, 0, pkt[:5])
			tb.Data(key, 5, pkt[5:])
		case 2: // checksum failure
			tb.Intro(key, len(pkt), sumOf(pkt)+1, nil)
			tb.Data(key, 0, pkt)
		case 3: // conflict
			tb.Intro(key, len(pkt), sumOf(pkt), nil)
			tb.Data(key, 0, pkt[:5])
			tb.Data(key, 0, []byte("XXXXX"))
		}
	}
	if delivered != wantDelivered {
		t.Fatalf("delivered %d packets, want %d", delivered, wantDelivered)
	}
	if len(buffers) != 1 {
		t.Errorf("deliveries used %d distinct buffers, want 1: the table reuses a lent buffer", len(buffers))
	}
}

// TestSteadyStateAllocatesNothing drives a warmed table with a steady
// stream — early fragments, timeouts and deliveries — and holds it to
// zero allocations per round, with OnDeliver set or not: the delivered
// buffer is lent to OnDeliver and recycled either way.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	sum := sumOf(packet)
	// Each stale key idles out (1 s at 100 ms a round) well before the
	// round that reuses it.
	var stale [20]string
	for i := range stale {
		stale[i] = fmt.Sprint("stale", i)
	}
	for _, deliver := range []bool{true, false} {
		c := &clock{}
		tb := New[string](Config{Checksum: checksum.Internet, Timeout: time.Second, SharedKeys: true}, c.Now)
		if deliver {
			tb.OnDeliver = func(string, []byte, *frame.Truth) {}
		}
		n := 0
		round := func() {
			c.now += 100 * time.Millisecond
			tb.Sweep()
			tb.Data("early", 4, packet[4:]) // heard before its introduction
			tb.Intro("early", len(packet), sum, nil)
			tb.Data("early", 0, packet[:4])
			tb.Data(stale[n%len(stale)], 0, packet[:4]) // never completes
			n++
		}
		for i := 0; i < 100; i++ {
			round()
		}
		delivered := tb.Stats().Delivered
		if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
			t.Errorf("OnDeliver set %v: %.1f allocations per round, want 0", deliver, allocs)
		}
		if tb.Stats().Delivered-delivered != 101 || tb.Stats().Timeouts == 0 {
			t.Errorf("OnDeliver set %v: stats %+v, want one delivery per round and timeouts", deliver, *tb.Stats())
		}
	}
}

func TestEvictionStrictlyAfterTimeout(t *testing.T) {
	c := &clock{}
	tb, rec := newTable(Config{Timeout: 10 * time.Second}, c)
	partialTx(tb, "k")
	if next, ok := tb.NextExpiry(); !ok || next != 10*time.Second {
		t.Fatalf("NextExpiry = (%v, %v), want (10s, true)", next, ok)
	}
	c.now = 10 * time.Second
	tb.Sweep()
	if tb.Len() != 1 {
		t.Fatal("evicted exactly at the timeout")
	}
	c.now++
	tb.Sweep()
	if tb.Len() != 0 || tb.Stats().Timeouts != 1 || !slices.Equal(rec.log, []string{"expire:k"}) {
		t.Errorf("Len %d, Timeouts %d, hooks %v at timeout+1ns; want 0, 1, [expire:k]",
			tb.Len(), tb.Stats().Timeouts, rec.log)
	}
	if _, ok := tb.NextExpiry(); ok {
		t.Error("NextExpiry outstanding after the queue drained")
	}
}

func TestLaterActivityDefersEviction(t *testing.T) {
	c := &clock{}
	tb, _ := newTable(Config{Timeout: 10 * time.Second}, c)
	tb.Intro("k", len(packet), sumOf(packet), nil)
	c.now = 8 * time.Second
	tb.Data("k", 0, packet[:4])
	c.now = 10*time.Second + 1
	tb.Sweep()
	if tb.Len() != 1 {
		t.Fatal("refreshed partial evicted by a stale queue entry")
	}
	c.now = 18*time.Second + 1
	tb.Sweep()
	if tb.Len() != 0 {
		t.Error("refreshed partial outlived its own timeout")
	}
}

func TestCapEviction(t *testing.T) {
	cases := []struct {
		name    string
		timeout time.Duration
		clocked bool
		refresh bool // touch "a" again after "b" starts
		victim  string
	}{
		{"oldest first", time.Hour, true, false, "a"},
		{"refreshed partial survives", time.Hour, true, true, "b"},
		{"insertion order without a clock", 0, false, false, "a"},
	}
	for _, tc := range cases {
		var c *clock
		if tc.clocked {
			c = &clock{}
		}
		tb, rec := newTable(Config{Timeout: tc.timeout, MaxPartials: 2}, c)
		tick := func() {
			if c != nil {
				c.now += time.Millisecond
			}
		}
		partialTx(tb, "a")
		tick()
		partialTx(tb, "b")
		tick()
		if tc.refresh {
			tb.Data("a", 0, packet[:4])
			tick()
		}
		partialTx(tb, "c")

		// The cap-evict hook fires before the expiry hook, for the victim
		// alone; the survivors keep their state.
		want := []string{"capevict:" + tc.victim, "expire:" + tc.victim}
		if !slices.Equal(rec.log, want) {
			t.Errorf("%s: hooks %v, want %v", tc.name, rec.log, want)
		}
		if _, ok := tb.pending[tc.victim]; ok {
			t.Errorf("%s: victim %q still held", tc.name, tc.victim)
		}
		for _, k := range []string{"a", "b", "c"} {
			if _, ok := tb.pending[k]; !ok && k != tc.victim {
				t.Errorf("%s: survivor %q evicted", tc.name, k)
			}
		}
		st := tb.Stats()
		if st.CapEvictions != 1 || st.Timeouts != 0 || st.PendingPeak != 2 {
			t.Errorf("%s: cap evictions/timeouts/peak = %d/%d/%d, want 1/0/2",
				tc.name, st.CapEvictions, st.Timeouts, st.PendingPeak)
		}
	}
}

func TestResetKeepsStats(t *testing.T) {
	c := &clock{}
	tb, _ := newTable(Config{Timeout: time.Second}, c)
	tb.Intro("done", len(packet), sumOf(packet), nil)
	tb.Data("done", 0, packet)
	partialTx(tb, "k")
	c.now = 2 * time.Second
	tb.Sweep()
	partialTx(tb, "k")
	before := *tb.Stats()
	free := len(tb.free)

	tb.Reset()
	if tb.Len() != 0 || len(tb.expq) != 0 {
		t.Errorf("Len %d, queue %d after Reset; want empty", tb.Len(), len(tb.expq))
	}
	if len(tb.free) != free+1 {
		t.Errorf("free list %d after Reset, want the pending partial retired to it (%d)", len(tb.free), free+1)
	}
	if _, ok := tb.NextExpiry(); ok {
		t.Error("NextExpiry outstanding after Reset")
	}
	if *tb.Stats() != before {
		t.Errorf("Reset changed stats: %+v, want %+v", *tb.Stats(), before)
	}
	// The queue restarts cleanly: a post-reset partial expires normally.
	partialTx(tb, "k")
	c.now += 2 * time.Second
	tb.Sweep()
	if tb.Stats().Timeouts != 2 {
		t.Errorf("Timeouts = %d after post-Reset expiry, want 2", tb.Stats().Timeouts)
	}
	// A crash clears the table in place: a partial and a reset reuse it.
	if allocs := testing.AllocsPerRun(100, func() {
		partialTx(tb, "k")
		tb.Reset()
	}); allocs != 0 {
		t.Errorf("a partial and a Reset allocated %.1f times, want 0", allocs)
	}
}

func TestEarlyFragmentsBounded(t *testing.T) {
	tb, _ := newTable(Config{}, nil)
	for i := 0; i < maxEarlyFragments+100; i++ {
		tb.Data("k", 0, packet[:1])
	}
	if got := len(tb.pending["k"].early); got != maxEarlyFragments {
		t.Errorf("buffered %d early fragments, want the bound %d", got, maxEarlyFragments)
	}
}

func TestExpiryQueueCompacts(t *testing.T) {
	c := &clock{}
	tb, _ := newTable(Config{Timeout: time.Second}, c)
	const n = 200
	for i := 0; i < n; i++ {
		c.now = time.Duration(i) * time.Millisecond
		partialTx(tb, string(rune('A'+i)))
	}
	if tb.Len() != n {
		t.Fatalf("Len = %d, want %d", tb.Len(), n)
	}
	c.now += 2 * time.Second
	tb.Sweep()
	if tb.Len() != 0 || tb.Stats().Timeouts != n {
		t.Errorf("Len %d, Timeouts %d after mass expiry; want 0, %d", tb.Len(), tb.Stats().Timeouts, n)
	}
	// The consumed prefix is reclaimed, not retained forever.
	if tb.expqHead != 0 || len(tb.expq) != 0 {
		t.Errorf("expiry queue not compacted: head %d, len %d", tb.expqHead, len(tb.expq))
	}
}

func TestNoQueueWithoutTimeoutOrCap(t *testing.T) {
	for _, c := range []*clock{nil, {}} {
		tb, _ := newTable(Config{}, c)
		partialTx(tb, "k")
		if len(tb.expq) != 0 {
			t.Errorf("clock %v: expiry queue grew to %d entries with timeouts and cap off", c, len(tb.expq))
		}
		if _, ok := tb.NextExpiry(); ok {
			t.Errorf("clock %v: NextExpiry reports work with timeouts off", c)
		}
	}
	// A nil clock disables a configured timeout too.
	tb, _ := newTable(Config{Timeout: time.Second}, nil)
	partialTx(tb, "k")
	tb.Sweep()
	if len(tb.expq) != 0 || tb.Len() != 1 {
		t.Errorf("nil clock: queue %d, Len %d; want 0, 1", len(tb.expq), tb.Len())
	}
}
