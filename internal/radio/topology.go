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

// UnitDisk connects nodes within Range of each other — the standard
// sensor-network propagation abstraction. Positions may be changed at any
// time (node mobility, one of the paper's "dynamics").
//
// Placed nodes are also indexed in a spatial grid with cells the size of
// the radio range, maintained incrementally on Place and Remove, so
// Neighbors answers range queries by scanning the 3×3 cell block around a
// node instead of the whole population.
type UnitDisk struct {
	Range     float64
	positions map[NodeID]Point

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
	u := &UnitDisk{Range: radioRange, positions: make(map[NodeID]Point)}
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
	for id, p := range u.positions {
		u.gridAdd(id, p)
	}
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
// incrementally — a move within one cell costs two map lookups.
func (u *UnitDisk) Place(id NodeID, p Point) {
	u.syncGrid()
	if old, ok := u.positions[id]; ok {
		if u.cellOf(old) == u.cellOf(p) {
			u.positions[id] = p
			return
		}
		u.gridRemove(id, old)
	}
	u.positions[id] = p
	u.gridAdd(id, p)
}

// Remove forgets a node's position and frees its grid slot. A node that
// has churned out of the network keeps no topology state; Connected
// reports false for it until the next Place.
func (u *UnitDisk) Remove(id NodeID) {
	u.syncGrid()
	if p, ok := u.positions[id]; ok {
		u.gridRemove(id, p)
		delete(u.positions, id)
	}
}

// Position returns the node's position and whether it has been placed.
func (u *UnitDisk) Position(id NodeID) (Point, bool) {
	p, ok := u.positions[id]
	return p, ok
}

// Len reports the number of placed nodes.
func (u *UnitDisk) Len() int { return len(u.positions) }

// Connected reports whether both nodes are placed and within range.
func (u *UnitDisk) Connected(from, to NodeID) bool {
	if from == to {
		return false
	}
	a, okA := u.positions[from]
	b, okB := u.positions[to]
	return okA && okB && a.Dist(b) <= u.Range
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
	p, ok := u.positions[id]
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
				if q := u.positions[other]; p.Dist(q) <= u.Range {
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
