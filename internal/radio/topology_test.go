package radio

import (
	"math"
	"slices"
	"testing"

	"retri/internal/xrand"
)

func TestFullMesh(t *testing.T) {
	var fm FullMesh
	if !fm.Connected(1, 2) || !fm.Connected(2, 1) {
		t.Error("full mesh should connect distinct nodes")
	}
	if fm.Connected(3, 3) {
		t.Error("full mesh should not self-connect")
	}
}

func TestGraphSymmetricLinks(t *testing.T) {
	g := NewGraph()
	g.SetLink(1, 2, true)
	if !g.Connected(1, 2) || !g.Connected(2, 1) {
		t.Error("link 1-2 should be symmetric")
	}
	if g.Connected(1, 3) {
		t.Error("unlinked pair reported connected")
	}
	g.SetLink(2, 1, false)
	if g.Connected(1, 2) {
		t.Error("removed link still connected")
	}
}

func TestGraphSelfLinkIgnored(t *testing.T) {
	g := NewGraph()
	g.SetLink(5, 5, true)
	if g.Connected(5, 5) {
		t.Error("self link should be impossible")
	}
}

func TestGraphHiddenTerminal(t *testing.T) {
	// The paper's footnote-3 scenario: A and C both reach B but not each
	// other.
	g := NewGraph()
	g.SetLink(1, 2, true)
	g.SetLink(2, 3, true)
	if !g.Connected(1, 2) || !g.Connected(3, 2) {
		t.Fatal("A-B and C-B should be connected")
	}
	if g.Connected(1, 3) {
		t.Error("hidden terminals A and C should not hear each other")
	}
}

func TestUnitDisk(t *testing.T) {
	u := NewUnitDisk(10)
	u.Place(1, Point{X: 0, Y: 0})
	u.Place(2, Point{X: 6, Y: 8}) // distance exactly 10
	u.Place(3, Point{X: 20, Y: 0})
	if !u.Connected(1, 2) {
		t.Error("nodes at exactly Range should be connected")
	}
	if u.Connected(1, 3) {
		t.Error("nodes beyond Range reported connected")
	}
	if u.Connected(1, 4) {
		t.Error("unplaced node reported connected")
	}
	if u.Connected(1, 1) {
		t.Error("self-connection reported")
	}
}

func TestUnitDiskMobility(t *testing.T) {
	u := NewUnitDisk(5)
	u.Place(1, Point{})
	u.Place(2, Point{X: 100})
	if u.Connected(1, 2) {
		t.Fatal("distant nodes connected")
	}
	u.Place(2, Point{X: 3})
	if !u.Connected(1, 2) {
		t.Error("node moved into range but not connected")
	}
	p, ok := u.Position(2)
	if !ok || p.X != 3 {
		t.Errorf("Position(2) = %v, %v", p, ok)
	}
	if _, ok := u.Position(9); ok {
		t.Error("Position of unplaced node reported ok")
	}
}

func TestGraphRemove(t *testing.T) {
	g := NewGraph()
	g.SetLink(1, 2, true)
	g.SetLink(2, 3, true)
	g.SetLink(3, 4, true)
	g.Remove(2)
	if g.Connected(1, 2) || g.Connected(2, 3) {
		t.Error("links touching removed node survive")
	}
	if !g.Connected(3, 4) {
		t.Error("unrelated link removed")
	}
	if len(g.links) != 1 {
		t.Errorf("link state not freed: %d entries, want 1", len(g.links))
	}
}

func TestUnitDiskRemove(t *testing.T) {
	u := NewUnitDisk(10)
	u.Place(1, Point{})
	u.Place(2, Point{X: 5})
	if !u.Connected(1, 2) {
		t.Fatal("setup: nodes should connect")
	}
	u.Remove(2)
	if u.Connected(1, 2) {
		t.Error("removed node still connected")
	}
	if _, ok := u.Position(2); ok {
		t.Error("removed node still has a position")
	}
	if u.Len() != 1 {
		t.Errorf("Len = %d, want 1", u.Len())
	}
	if got := u.Neighbors(1); len(got) != 0 {
		t.Errorf("Neighbors(1) = %v after removal, want none", got)
	}
	u.Remove(2) // removing twice is a no-op
	u.Place(2, Point{X: 5})
	if !u.Connected(1, 2) {
		t.Error("re-placed node not connected")
	}
}

// TestUnitDiskNeighborsMatchesConnected is the grid's correctness
// invariant: for every pair, membership in Neighbors must equal Connected,
// including after moves that cross cells and nodes sitting on negative
// coordinates and cell boundaries.
func TestUnitDiskNeighborsMatchesConnected(t *testing.T) {
	u := NewUnitDisk(7)
	pts := []Point{
		{0, 0}, {6.9, 0}, {7.1, 0}, {-3, -3}, {-14, 2}, {21, 21},
		{7, 7}, {13.9, 0}, {0, -7}, {3.5, 3.5},
	}
	for i, p := range pts {
		u.Place(NodeID(i), p)
	}
	// Move a few nodes across cell boundaries.
	u.Place(2, Point{X: -6, Y: 0})
	u.Place(5, Point{X: 1, Y: 1})
	u.Remove(8)
	check := func() {
		t.Helper()
		for id := NodeID(0); id < NodeID(len(pts)); id++ {
			nbrs := u.Neighbors(id)
			inNbrs := make(map[NodeID]bool, len(nbrs))
			for i, n := range nbrs {
				inNbrs[n] = true
				if i > 0 && nbrs[i-1] >= n {
					t.Fatalf("Neighbors(%d) = %v not in ascending order", id, nbrs)
				}
			}
			for other := NodeID(0); other < NodeID(len(pts)); other++ {
				if got, want := inNbrs[other], u.Connected(id, other); got != want {
					t.Errorf("Neighbors(%d) contains %d = %v, Connected = %v", id, other, got, want)
				}
			}
		}
	}
	check()
	// Mutating Range directly must not desync the grid: it rebuilds lazily.
	u.Range = 15
	check()
	u.Range = 2
	check()
}

// TestUnitDiskNeighborsAppend: the append form must extend the given
// buffer in place, sort only the appended region, and agree with
// Neighbors; an unplaced node appends nothing.
func TestUnitDiskNeighborsAppend(t *testing.T) {
	u := NewUnitDisk(10)
	for i, p := range []Point{{0, 0}, {3, 0}, {6, 0}, {9, 0}, {30, 30}} {
		u.Place(NodeID(i), p)
	}
	prefix := []NodeID{99, 98} // must survive untouched and unsorted
	out := u.NeighborsAppend(1, prefix)
	if out[0] != 99 || out[1] != 98 {
		t.Fatalf("prefix disturbed: %v", out)
	}
	got := out[2:]
	want := u.Neighbors(1)
	if len(got) != len(want) {
		t.Fatalf("NeighborsAppend %v vs Neighbors %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NeighborsAppend %v vs Neighbors %v", got, want)
		}
	}
	if more := u.NeighborsAppend(77, out); len(more) != len(out) {
		t.Errorf("unplaced node appended %d entries", len(more)-len(out))
	}
	// Reuse without reallocation: a second query into the same buffer.
	buf := out[:0]
	buf = u.NeighborsAppend(0, buf)
	if want := len(u.Neighbors(0)); len(buf) != want {
		t.Errorf("reused buffer query returned %d, want %d", len(buf), want)
	}
}

func TestPointDist(t *testing.T) {
	d := Point{X: 1, Y: 2}.Dist(Point{X: 4, Y: 6})
	if math.Abs(d-5) > 1e-12 {
		t.Errorf("Dist = %v, want 5", d)
	}
}

// TestWithinMatchesDist: the squared-distance range test must give
// a.Dist(b) <= r for every input, including those where the squares
// round across the boundary, overflow, underflow or are not numbers.
func TestWithinMatchesDist(t *testing.T) {
	check := func(a, b Point, r float64) {
		t.Helper()
		if got, want := within(a, b, r), a.Dist(b) <= r; got != want {
			t.Fatalf("within(%v, %v, %v) = %v, Dist %v <= r is %v", a, b, r, got, a.Dist(b), want)
		}
	}
	// around checks r at the pair's exact distance and one ulp either
	// side, where the squares most often round across each other.
	around := func(a, b Point) {
		t.Helper()
		d := a.Dist(b)
		check(a, b, d)
		check(a, b, math.Nextafter(d, math.Inf(1)))
		check(a, b, math.Nextafter(d, math.Inf(-1)))
	}
	rng := xrand.NewSource(11).Stream("within")
	for _, scale := range []float64{1e-160, 1e-150, 1e-3, 1, 100, 1e150, 1e154} {
		pt := func() Point {
			return Point{X: (rng.Float64() - 0.5) * scale, Y: (rng.Float64() - 0.5) * scale}
		}
		for i := 0; i < 20000; i++ {
			a, b := pt(), pt()
			check(a, b, rng.Float64()*scale)
			around(a, b)
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	pairs := [][2]Point{
		{{0, 0}, {0, 0}},
		{{0, 0}, {6, 8}},
		{{1, 1}, {1e-300, 0}},
		{{nan, 0}, {0, 0}},
		{{0, nan}, {1, 1}},
		{{inf, 0}, {0, 0}},
		{{inf, nan}, {0, 0}},
		{{-inf, 0}, {inf, 0}},
		{{1e308, 0}, {-1e308, 0}},
		{{1e154, 1e154}, {-1e154, -1e154}},
		{{3e-160, 0}, {0, 4e-160}},
		{{1e-320, 0}, {0, 0}},
	}
	for _, p := range pairs {
		a, b := p[0], p[1]
		around(a, b)
		for _, r := range []float64{0, -1, -inf, inf, nan, 1e-160, 1.5e-154, 1, 10, 1e154, 1.4e154, math.MaxFloat64} {
			check(a, b, r)
			check(b, a, r)
		}
	}
}

// TestUnitDiskIDSplit: the position table indexes ids in [0, 1<<16) by
// slot and keeps any other id in a map. Ids on both sides of that split
// must behave alike through every method, against a model that applies
// Dist to a plain map.
func TestUnitDiskIDSplit(t *testing.T) {
	ids := []NodeID{-1, 0, 65535, 65536, 1 << 40}
	u := NewUnitDisk(10)
	model := map[NodeID]Point{}
	place := func(id NodeID, p Point) {
		u.Place(id, p)
		model[id] = p
	}
	check := func(stage string) {
		t.Helper()
		if u.Len() != len(model) {
			t.Fatalf("%s: Len = %d, want %d", stage, u.Len(), len(model))
		}
		for _, a := range ids {
			pa, placed := model[a]
			if p, ok := u.Position(a); ok != placed || p != pa {
				t.Fatalf("%s: Position(%d) = %v, %v; want %v, %v", stage, a, p, ok, pa, placed)
			}
			var want []NodeID // ids is ascending, so this is too
			for _, b := range ids {
				pb, ok := model[b]
				conn := a != b && placed && ok && pa.Dist(pb) <= u.Range
				if u.Connected(a, b) != conn {
					t.Fatalf("%s: Connected(%d, %d) = %v, want %v", stage, a, b, !conn, conn)
				}
				if conn {
					want = append(want, b)
				}
			}
			if got := u.Neighbors(a); !slices.Equal(got, want) {
				t.Fatalf("%s: Neighbors(%d) = %v, want %v", stage, a, got, want)
			}
		}
	}
	for i, id := range ids {
		place(id, Point{X: float64(3 * i)})
	}
	check("placed")
	for i, id := range ids {
		u.Remove(id)
		delete(model, id)
		check("removed")
		place(id, Point{X: float64(4 * (len(ids) - i)), Y: 1})
		check("re-placed")
	}
	for _, r := range []float64{12, 2, 0, 30} {
		u.Range = r
		check("range changed")
	}
}
