package core

import (
	"testing"
	"testing/quick"

	"retri/internal/xrand"
)

func TestNewSpaceValidation(t *testing.T) {
	for _, bits := range []int{1, 9, 16, 32} {
		s, err := NewSpace(bits)
		if err != nil {
			t.Errorf("NewSpace(%d) error: %v", bits, err)
		}
		if s.Bits() != bits {
			t.Errorf("Bits() = %d, want %d", s.Bits(), bits)
		}
	}
	for _, bits := range []int{0, -1, 33, 64} {
		if _, err := NewSpace(bits); err == nil {
			t.Errorf("NewSpace(%d) = nil error, want failure", bits)
		}
	}
}

func TestMustSpacePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustSpace(0) did not panic")
		}
	}()
	MustSpace(0)
}

func TestSpaceSizeAndContains(t *testing.T) {
	s := MustSpace(9)
	if s.Size() != 512 {
		t.Errorf("Size() = %d, want 512", s.Size())
	}
	if !s.Contains(0) || !s.Contains(511) {
		t.Error("Contains rejects in-range ids")
	}
	if s.Contains(512) {
		t.Error("Contains accepts out-of-range id")
	}
	if got := MustSpace(32).Size(); got != 1<<32 {
		t.Errorf("32-bit Size() = %d, want 2^32", got)
	}
}

func TestUniformSelectorInRange(t *testing.T) {
	rng := xrand.NewSource(1).Stream("uniform")
	s := MustSpace(4)
	sel := NewUniformSelector(s, rng)
	if sel.Name() != "uniform" || sel.Space() != s {
		t.Error("selector metadata wrong")
	}
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		id := sel.Next()
		if !s.Contains(id) {
			t.Fatalf("Next() = %d outside 4-bit space", id)
		}
		seen[id] = true
	}
	if len(seen) != 16 {
		t.Errorf("1000 draws hit %d/16 identifiers", len(seen))
	}
}

func TestUniformSelectorIgnoresObserve(t *testing.T) {
	s := MustSpace(2)
	a := NewUniformSelector(s, xrand.NewSource(9).Stream("a"))
	b := NewUniformSelector(s, xrand.NewSource(9).Stream("a"))
	for i := uint64(0); i < 4; i++ {
		a.Observe(i)
	}
	for i := 0; i < 32; i++ {
		if a.Next() != b.Next() {
			t.Fatal("Observe changed uniform selector behaviour")
		}
	}
}

func TestListeningSelectorAvoidsRecent(t *testing.T) {
	rng := xrand.NewSource(2).Stream("listen")
	s := MustSpace(3) // 8 identifiers
	sel := NewListeningSelector(s, rng, FixedWindow(4))
	sel.Observe(0)
	sel.Observe(1)
	sel.Observe(2)
	sel.Observe(3)
	for i := 0; i < 200; i++ {
		id := sel.Next()
		if id <= 3 {
			t.Fatalf("Next() returned recently heard id %d", id)
		}
	}
}

func TestListeningSelectorWindowEviction(t *testing.T) {
	rng := xrand.NewSource(3).Stream("evict")
	s := MustSpace(3)
	sel := NewListeningSelector(s, rng, FixedWindow(2))
	sel.Observe(0)
	sel.Observe(1)
	sel.Observe(2) // evicts 0
	if sel.Recent() != 2 || sel.RecentDistinct() != 2 {
		t.Fatalf("window = %d/%d distinct, want 2/2", sel.Recent(), sel.RecentDistinct())
	}
	saw0 := false
	for i := 0; i < 400; i++ {
		id := sel.Next()
		if id == 1 || id == 2 {
			t.Fatalf("Next() returned in-window id %d", id)
		}
		if id == 0 {
			saw0 = true
		}
	}
	if !saw0 {
		t.Error("evicted id 0 never drawn again")
	}
}

// TestListeningSelectorWindowReusesStorage slides a full window, and then
// a shrinking one, across a stream of observations: the window keeps
// exactly the newest keys, and once warm it allocates nothing, because
// trim drops the oldest entries in place.
func TestListeningSelectorWindowReusesStorage(t *testing.T) {
	window := 10
	sel := NewListeningSelector(MustSpace(8), xrand.NewSource(5).Stream("slide"), func() int { return window })
	next := uint64(0)
	observe := func() {
		sel.Observe(next % 256)
		next++
	}
	for i := 0; i < 300; i++ {
		observe()
	}
	base := &sel.recent[0]
	if allocs := testing.AllocsPerRun(1000, observe); allocs != 0 {
		t.Errorf("Observe allocated %.1f times once warm, want 0", allocs)
	}
	if &sel.recent[0] != base {
		t.Error("the window moved to a new backing array once warm")
	}
	window = 4
	observe()
	if sel.Recent() != 4 || sel.RecentDistinct() != 4 {
		t.Fatalf("window = %d/%d distinct after shrinking to 4", sel.Recent(), sel.RecentDistinct())
	}
	for back := uint64(1); back <= 4; back++ {
		if sel.counts[WidthKey(8, (next-back)%256)] != 1 {
			t.Errorf("newest observation %d missing from the window", (next-back)%256)
		}
	}
}

func TestListeningSelectorDuplicateObservations(t *testing.T) {
	rng := xrand.NewSource(4).Stream("dup")
	s := MustSpace(2)
	sel := NewListeningSelector(s, rng, FixedWindow(3))
	sel.Observe(1)
	sel.Observe(1)
	sel.Observe(1)
	if sel.RecentDistinct() != 1 {
		t.Fatalf("distinct = %d, want 1", sel.RecentDistinct())
	}
	// One eviction must not free id 1 (two copies remain).
	sel.Observe(2)
	for i := 0; i < 100; i++ {
		if id := sel.Next(); id == 1 || id == 2 {
			t.Fatalf("Next() returned in-window id %d", id)
		}
	}
}

func TestListeningSelectorFullWindowFallsBack(t *testing.T) {
	rng := xrand.NewSource(5).Stream("full")
	s := MustSpace(2) // 4 ids
	sel := NewListeningSelector(s, rng, FixedWindow(8))
	for i := 0; i < 8; i++ {
		sel.Observe(uint64(i % 4))
	}
	if sel.RecentDistinct() != 4 {
		t.Fatalf("distinct = %d, want whole space", sel.RecentDistinct())
	}
	// Every identifier is "recent": selector must still produce ids.
	seen := make(map[uint64]bool)
	for i := 0; i < 200; i++ {
		id := sel.Next()
		if !s.Contains(id) {
			t.Fatalf("fallback draw %d out of space", id)
		}
		seen[id] = true
	}
	if len(seen) < 3 {
		t.Errorf("fallback draws concentrated: saw %d/4", len(seen))
	}
}

func TestListeningSelectorIgnoresForeignIDs(t *testing.T) {
	rng := xrand.NewSource(6).Stream("foreign")
	sel := NewListeningSelector(MustSpace(2), rng, FixedWindow(4))
	sel.Observe(1 << 40) // not representable in 2 bits
	if sel.Recent() != 0 {
		t.Error("out-of-space observation recorded")
	}
}

func TestListeningSelectorAdaptiveWindow(t *testing.T) {
	rng := xrand.NewSource(7).Stream("adapt")
	window := 4
	sel := NewListeningSelector(MustSpace(8), rng, func() int { return window })
	for i := 0; i < 10; i++ {
		sel.Observe(uint64(i))
	}
	if sel.Recent() != 4 {
		t.Fatalf("Recent() = %d, want 4", sel.Recent())
	}
	window = 2
	sel.Observe(99)
	if sel.Recent() != 2 {
		t.Errorf("Recent() after shrink = %d, want 2", sel.Recent())
	}
}

func TestListeningSelectorNilWindowDefault(t *testing.T) {
	rng := xrand.NewSource(8).Stream("nilwin")
	sel := NewListeningSelector(MustSpace(8), rng, nil)
	for i := 0; i < 100; i++ {
		sel.Observe(uint64(i))
	}
	if sel.Recent() != 2*DefaultAssumedT {
		t.Errorf("default window = %d, want %d", sel.Recent(), 2*DefaultAssumedT)
	}
}

func TestListeningSelectorLargeSpaceRejection(t *testing.T) {
	rng := xrand.NewSource(9).Stream("large")
	s := MustSpace(24) // forces the rejection-sampling path
	sel := NewListeningSelector(s, rng, FixedWindow(16))
	for i := 0; i < 16; i++ {
		sel.Observe(uint64(i))
	}
	for i := 0; i < 1000; i++ {
		id := sel.Next()
		if id < 16 {
			t.Fatalf("rejection path returned in-window id %d", id)
		}
	}
}

// TestListeningUniformOverComplement checks the small-space exact draw is
// roughly uniform over the not-recent identifiers.
func TestListeningUniformOverComplement(t *testing.T) {
	rng := xrand.NewSource(10).Stream("unifcomp")
	sel := NewListeningSelector(MustSpace(3), rng, FixedWindow(4))
	for _, id := range []uint64{0, 2, 4, 6} {
		sel.Observe(id)
	}
	counts := make(map[uint64]int)
	const n = 8000
	for i := 0; i < n; i++ {
		counts[sel.Next()]++
	}
	for _, id := range []uint64{1, 3, 5, 7} {
		got := counts[id]
		if got < n/4-n/16 || got > n/4+n/16 {
			t.Errorf("id %d drawn %d times, want ~%d", id, got, n/4)
		}
	}
}

// enumerateFree is the reference small-pool listening draw: the k-th
// identifier, in ascending order, that the window does not hold at width
// bits.
func enumerateFree(l *ListeningSelector, bits int, k uint64) uint64 {
	for id := uint64(0); ; id++ {
		if l.counts[WidthKey(bits, id)] > 0 {
			continue
		}
		if k == 0 {
			return id
		}
		k--
	}
}

// TestListeningDrawMatchesEnumeration: the small-pool draw returns the
// identifier the enumeration of the pool's complement returns for the same
// random draw, at widths 1–12 over windows holding repeated identifiers
// and entries at other widths, on both sides of the draw's 64-entry stack
// scratch. A twin stream replays the selector's draws for the reference.
func TestListeningDrawMatchesEnumeration(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		for bits := 1; bits <= 12; bits++ {
			src := xrand.NewSource(seed)
			window := 1 + int(seed*7)%100
			sel := NewListeningSelector(MustSpace(12), src.Stream("draw"), FixedWindow(window))
			twin, obs := src.Stream("draw"), src.Stream("obs")
			size := widthSize(bits)
			for step := 0; step < 120; step++ {
				w := bits
				if obs.IntN(3) == 0 {
					w = 1 + obs.IntN(12) // a neighbour at another width
				}
				id := obs.Uint64N(widthSize(w))
				if obs.IntN(2) == 0 {
					id %= 4 // repeats
				}
				sel.ObserveWidth(w, id)
				distinct := uint64(sel.perWidth[bits])
				if distinct >= size {
					twin.Uint64N(size) // the exhausted-pool fallback's draw
					sel.NextWidth(bits)
					continue
				}
				want := enumerateFree(sel, bits, twin.Uint64N(size-distinct))
				if got := sel.NextWidth(bits); got != want {
					t.Fatalf("seed %d, width %d, step %d: drew %d, enumeration gives %d (window %v)",
						seed, bits, step, got, want, sel.recent)
				}
			}
		}
	}
}

// TestListeningDrawFindsTheOneFreeIdentifier fills the window with every
// identifier but one at each width 1–12: every draw must return it.
func TestListeningDrawFindsTheOneFreeIdentifier(t *testing.T) {
	obs := xrand.NewSource(11).Stream("free")
	for bits := 1; bits <= 12; bits++ {
		size := widthSize(bits)
		sel := NewListeningSelector(MustSpace(12), xrand.NewSource(12).Stream("draw"), FixedWindow(int(size)+8))
		free := obs.Uint64N(size)
		for id := size; id > 0; id-- {
			if id-1 != free {
				sel.ObserveWidth(bits, id-1)
			}
		}
		sel.ObserveWidth(bits, (free+1)%size) // a repeat changes nothing
		sel.ObserveWidth(bits%12+1, free)     // nor does the id at another width
		for i := 0; i < 8; i++ {
			if got := sel.NextWidth(bits); got != free {
				t.Fatalf("width %d: drew %d, the one free identifier is %d", bits, got, free)
			}
		}
	}
}

// TestListeningDrawAllocatesNothing: a selector's small-pool draw over a
// window of up to 64 never allocates, even the first; over a larger one
// it reuses its grown scratch, across a Reset too.
func TestListeningDrawAllocatesNothing(t *testing.T) {
	fresh := NewListeningSelector(MustSpace(10), xrand.NewSource(13).Stream("fresh"), FixedWindow(64))
	for i := uint64(0); i < 64; i++ {
		fresh.Observe(i * 7 % 1024)
	}
	// AllocsPerRun(1, f) counts both of its calls, the first draw included.
	if allocs := testing.AllocsPerRun(1, func() { fresh.Next() }); allocs != 0 {
		t.Errorf("a fresh selector's draws allocated %.1f times, want 0", allocs)
	}
	sel := NewListeningSelector(MustSpace(10), xrand.NewSource(13).Stream("warm"), FixedWindow(100))
	for i := uint64(0); i < 100; i++ {
		sel.Observe(i * 7 % 1024)
	}
	sel.Next()
	if allocs := testing.AllocsPerRun(1000, func() { sel.Next() }); allocs != 0 {
		t.Errorf("NextWidth allocated %.1f times once warm, want 0", allocs)
	}
	sel.Reset()
	if allocs := testing.AllocsPerRun(100, func() {
		sel.Observe(3)
		sel.Next()
	}); allocs != 0 {
		t.Errorf("Observe+Next allocated %.1f times after Reset, want 0", allocs)
	}
}

func TestSequentialSelectorCycles(t *testing.T) {
	s := MustSpace(2)
	sel := NewSequentialSelector(s, 2)
	want := []uint64{2, 3, 0, 1, 2}
	for i, w := range want {
		if got := sel.Next(); got != w {
			t.Errorf("draw %d = %d, want %d", i, got, w)
		}
	}
	sel.Observe(0) // no-op
	if sel.Name() != "sequential" || sel.Space() != s {
		t.Error("sequential selector metadata wrong")
	}
}

func TestSequentialSelectorStartWraps(t *testing.T) {
	sel := NewSequentialSelector(MustSpace(2), 6)
	if got := sel.Next(); got != 2 {
		t.Errorf("start 6 mod 4: first draw = %d, want 2", got)
	}
}

// TestSelectorsStayInSpace is the cross-selector safety property.
func TestSelectorsStayInSpace(t *testing.T) {
	f := func(seed uint64, bitsRaw uint8, draws uint8) bool {
		bits := int(bitsRaw%16) + 1
		s := MustSpace(bits)
		src := xrand.NewSource(seed)
		sels := []Selector{
			NewUniformSelector(s, src.Stream("u")),
			NewListeningSelector(s, src.Stream("l"), FixedWindow(10)),
			NewSequentialSelector(s, seed),
		}
		rng := src.Stream("obs")
		for _, sel := range sels {
			for i := 0; i < int(draws); i++ {
				id := sel.Next()
				if !s.Contains(id) {
					return false
				}
				sel.Observe(rng.Uint64N(s.Size()))
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkUniformNext(b *testing.B) {
	sel := NewUniformSelector(MustSpace(16), xrand.NewSource(1).Stream("b"))
	for i := 0; i < b.N; i++ {
		sel.Next()
	}
}

func BenchmarkListeningNextSmallSpace(b *testing.B) {
	sel := NewListeningSelector(MustSpace(8), xrand.NewSource(1).Stream("b"), FixedWindow(10))
	for i := 0; i < 10; i++ {
		sel.Observe(uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel.Next()
	}
}

// BenchmarkListeningNext10Bit is the chaos sweep's width: a 1024-id pool
// under a 20-transaction window.
func BenchmarkListeningNext10Bit(b *testing.B) {
	sel := NewListeningSelector(MustSpace(10), xrand.NewSource(1).Stream("b"), FixedWindow(20))
	for i := uint64(0); i < 20; i++ {
		sel.Observe(i * 37 % 1024)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel.Next()
	}
}

func BenchmarkListeningNextLargeSpace(b *testing.B) {
	sel := NewListeningSelector(MustSpace(24), xrand.NewSource(1).Stream("b"), FixedWindow(10))
	for i := 0; i < 10; i++ {
		sel.Observe(uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel.Next()
	}
}
