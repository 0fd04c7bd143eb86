package radio

import (
	"math"
)

// NodeID identifies a radio on a medium. IDs are assigned by the caller and
// carry no protocol meaning — that is the point of the paper: the wire
// formats under test never transmit them (except the static-addressing
// baseline, which does, and pays for it).
type NodeID int

// Topology decides which pairs of radios can hear each other. Connectivity
// may be asymmetric in general, but all provided implementations are
// symmetric.
type Topology interface {
	// Connected reports whether a transmission from 'from' reaches 'to'.
	Connected(from, to NodeID) bool
}

// FullMesh connects every pair of nodes — the paper's Section 5 testbed
// ("all the radios were well in range of each other").
type FullMesh struct{}

// Connected always reports true for distinct nodes.
func (FullMesh) Connected(from, to NodeID) bool { return from != to }

// Graph is an explicit adjacency topology. Use it to construct
// hidden-terminal scenarios: A—B and B—C connected, A—C not.
type Graph struct {
	links map[[2]NodeID]bool
}

// Remove severs every link touching id, freeing the topology state a
// churned-out node leaves behind.
func (g *Graph) Remove(id NodeID) {
	for key := range g.links {
		if key[0] == id || key[1] == id {
			delete(g.links, key)
		}
	}
}

// NewGraph returns a topology with no links.
func NewGraph() *Graph {
	return &Graph{links: make(map[[2]NodeID]bool)}
}

// SetLink adds or removes the symmetric link a—b.
func (g *Graph) SetLink(a, b NodeID, connected bool) {
	if a == b {
		return
	}
	key := linkKey(a, b)
	if connected {
		g.links[key] = true
	} else {
		delete(g.links, key)
	}
}

// Connected reports whether the symmetric link exists.
func (g *Graph) Connected(from, to NodeID) bool {
	if from == to {
		return false
	}
	return g.links[linkKey(from, to)]
}

func linkKey(a, b NodeID) [2]NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]NodeID{a, b}
}

// Point is a 2-D position for the unit-disk topology.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance to q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// minNormal is the smallest positive normal float64.
const minNormal = 0x1p-1022

// within reports p.Dist(q) <= r, bit for bit, without the square root
// where it can. The squared distance and r² are each within a few ulps
// of exact (and when r² is normal, an underflowed term's absolute error
// is smaller still), so when they differ by more than the 1e-9 band
// their order is the order of the distance and r, and Hypot, also a few
// ulps from exact, agrees. Inside the band, and when r is not positive,
// r² is not a normal finite number or the squared distance is not
// finite, the answer is Dist's own.
func within(p, q Point, r float64) bool {
	dx, dy := p.X-q.X, p.Y-q.Y
	d2, r2 := dx*dx+dy*dy, r*r
	// r > 0 rules out NaN; d2 <= MaxFloat64 rules out NaN and Inf.
	if r > 0 && r2 >= minNormal && r2 <= math.MaxFloat64 && d2 <= math.MaxFloat64 {
		band := r2 * 1e-9
		if d2 < r2-band {
			return true
		}
		if d2 > r2+band {
			return false
		}
	}
	return p.Dist(q) <= r
}

// denseIDs bounds the ids a posTable indexes directly.
const denseIDs = 1 << 16

// posTable maps NodeIDs to positions. Ids in [0, denseIDs) index a slice
// directly, since the stack numbers its radios 0..N−1; any other id,
// negative or large, is kept in a map.
type posTable struct {
	dense  []posSlot
	sparse map[NodeID]Point
	n      int // placed ids, dense and sparse
}

type posSlot struct {
	p      Point
	placed bool
}

func isDense(id NodeID) bool { return uint(id) < denseIDs }

func (t *posTable) get(id NodeID) (Point, bool) {
	if isDense(id) {
		if int(id) < len(t.dense) {
			s := &t.dense[id]
			return s.p, s.placed
		}
		return Point{}, false
	}
	p, ok := t.sparse[id]
	return p, ok
}

func (t *posTable) set(id NodeID, p Point) {
	if isDense(id) {
		if grow := int(id) + 1 - len(t.dense); grow > 0 {
			t.dense = append(t.dense, make([]posSlot, grow)...)
		}
		s := &t.dense[id]
		if !s.placed {
			t.n++
		}
		*s = posSlot{p: p, placed: true}
		return
	}
	if t.sparse == nil {
		t.sparse = make(map[NodeID]Point)
	}
	if _, ok := t.sparse[id]; !ok {
		t.n++
	}
	t.sparse[id] = p
}

func (t *posTable) remove(id NodeID) {
	if isDense(id) {
		if int(id) < len(t.dense) && t.dense[id].placed {
			t.dense[id] = posSlot{}
			t.n--
		}
		return
	}
	if _, ok := t.sparse[id]; ok {
		delete(t.sparse, id)
		t.n--
	}
}

// each calls fn for every placed id: the dense ids in ascending order,
// then the sparse ones in map order.
func (t *posTable) each(fn func(NodeID, Point)) {
	for i := range t.dense {
		if s := &t.dense[i]; s.placed {
			fn(NodeID(i), s.p)
		}
	}
	for id, p := range t.sparse {
		fn(id, p)
	}
}

// UnitDisk connects nodes within Range of each other — the standard
// sensor-network propagation abstraction. Positions may be changed at any
// time (node mobility, one of the paper's "dynamics").
//
// Positions live in a table indexed by NodeID, so Connected, the test the
// medium runs for every frame and receiver, reads two slice slots. Placed
// nodes are also indexed in a spatial grid with cells the size of the
// radio range, maintained incrementally on Place and Remove, so Neighbors
// answers range queries by scanning the 3×3 cell block around a node
// instead of the whole population.
type UnitDisk struct {
	Range     float64
	positions posTable

	// cellSize is the grid pitch the cells map was built with. It tracks
	// Range lazily: mutating Range directly invalidates the grid, which is
	// rebuilt on the next Place/Remove/Neighbors.
	cellSize float64
	cells    map[cellKey]map[NodeID]struct{}
}

// cellKey addresses one grid cell.
type cellKey struct{ x, y int32 }

// NewUnitDisk returns an empty unit-disk topology with the given radio range.
func NewUnitDisk(radioRange float64) *UnitDisk {
	u := &UnitDisk{Range: radioRange}
	u.rebuildGrid()
	return u
}

// pitch returns the grid pitch for the current range; a degenerate range
// still yields usable (if pointless) cells.
func (u *UnitDisk) pitch() float64 {
	if u.Range > 0 {
		return u.Range
	}
	return 1
}

// rebuildGrid reindexes every placed node, called when the pitch changes.
func (u *UnitDisk) rebuildGrid() {
	u.cellSize = u.pitch()
	u.cells = make(map[cellKey]map[NodeID]struct{})
	u.positions.each(u.gridAdd)
}

// syncGrid rebuilds the index iff Range was mutated since the last build.
func (u *UnitDisk) syncGrid() {
	if u.cellSize != u.pitch() {
		u.rebuildGrid()
	}
}

func (u *UnitDisk) cellOf(p Point) cellKey {
	return cellKey{int32(math.Floor(p.X / u.cellSize)), int32(math.Floor(p.Y / u.cellSize))}
}

func (u *UnitDisk) gridAdd(id NodeID, p Point) {
	key := u.cellOf(p)
	cell, ok := u.cells[key]
	if !ok {
		cell = make(map[NodeID]struct{})
		u.cells[key] = cell
	}
	cell[id] = struct{}{}
}

func (u *UnitDisk) gridRemove(id NodeID, p Point) {
	key := u.cellOf(p)
	if cell, ok := u.cells[key]; ok {
		delete(cell, id)
		if len(cell) == 0 {
			delete(u.cells, key)
		}
	}
}

// Place sets (or moves) a node's position, updating the grid index
// incrementally — a move within one cell leaves the grid alone.
func (u *UnitDisk) Place(id NodeID, p Point) {
	u.syncGrid()
	old, ok := u.positions.get(id)
	u.positions.set(id, p)
	if ok {
		if u.cellOf(old) == u.cellOf(p) {
			return
		}
		u.gridRemove(id, old)
	}
	u.gridAdd(id, p)
}

// Remove forgets a node's position and frees its grid slot. A node that
// has churned out of the network keeps no topology state; Connected
// reports false for it until the next Place.
func (u *UnitDisk) Remove(id NodeID) {
	u.syncGrid()
	if p, ok := u.positions.get(id); ok {
		u.gridRemove(id, p)
		u.positions.remove(id)
	}
}

// Position returns the node's position and whether it has been placed.
func (u *UnitDisk) Position(id NodeID) (Point, bool) {
	return u.positions.get(id)
}

// Len reports the number of placed nodes.
func (u *UnitDisk) Len() int { return u.positions.n }

// Connected reports whether both nodes are placed and within range.
func (u *UnitDisk) Connected(from, to NodeID) bool {
	if from == to {
		return false
	}
	a, okA := u.positions.get(from)
	b, okB := u.positions.get(to)
	return okA && okB && within(a, b, u.Range)
}

// Neighbors returns the placed nodes within range of id, in ascending ID
// order (deterministic despite the map-backed grid). It scans only the
// 3×3 cell block around the node's cell; with cells the size of the radio
// range that block covers every possible neighbor.
func (u *UnitDisk) Neighbors(id NodeID) []NodeID {
	out := u.NeighborsAppend(id, nil)
	if len(out) == 0 {
		return nil
	}
	return out
}

// NeighborsAppend appends id's in-range neighbors to out and returns the
// extended slice, sorted ascending over the appended region. With a
// caller-reused buffer the query is allocation-free — the tile-scoped
// form the sharded core's per-window neighbor scans use.
func (u *UnitDisk) NeighborsAppend(id NodeID, out []NodeID) []NodeID {
	u.syncGrid()
	p, ok := u.positions.get(id)
	if !ok {
		return out
	}
	base := len(out)
	center := u.cellOf(p)
	for dx := int32(-1); dx <= 1; dx++ {
		for dy := int32(-1); dy <= 1; dy++ {
			cell, ok := u.cells[cellKey{center.x + dx, center.y + dy}]
			if !ok {
				continue
			}
			for other := range cell {
				if other == id {
					continue
				}
				if q, _ := u.positions.get(other); within(p, q, u.Range) {
					out = append(out, other)
				}
			}
		}
	}
	// Insertion sort: neighbor sets are small (tens of nodes) and
	// sort.Slice's closure would be this query's only allocation.
	fresh := out[base:]
	for i := 1; i < len(fresh); i++ {
		for j := i; j > 0 && fresh[j] < fresh[j-1]; j-- {
			fresh[j], fresh[j-1] = fresh[j-1], fresh[j]
		}
	}
	return out
}
