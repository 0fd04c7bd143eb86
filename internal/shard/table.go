package shard

import "math/bits"

// table is an open-addressing hash table from packed uint64 keys to V: a
// power-of-two slot array probed linearly and kept at most half full, with
// backward-shift deletion, so it never holds tombstones and a lookup stops
// at the first empty slot. The zero table is empty and allocates its slots
// on the first insert; an insert that would pass half full doubles them.
// No key may equal emptyKey.
//
// A tile's reassembly state lives in two of these instead of Go maps:
// every lookup is a multiply, a shift and a short scan of one array, with
// no hashing of a struct key and no bucket chain.
type table[V any] struct {
	slots []slot[V]
	n     int
	// shift is 64 - log2(len(slots)): home takes the top bits of a
	// Fibonacci hash.
	shift uint8
}

type slot[V any] struct {
	key uint64
	val V
}

const (
	// emptyKey marks a free slot.
	emptyKey = ^uint64(0)
	// tableMinSlots is the slot count of a table's first allocation.
	tableMinSlots = 16
)

// alloc gives the table size empty slots (a power of two) and no entries.
func (t *table[V]) alloc(size int) {
	t.slots = make([]slot[V], size)
	for i := range t.slots {
		t.slots[i].key = emptyKey
	}
	t.n = 0
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
}

// home is k's preferred slot.
func (t *table[V]) home(k uint64) int {
	return int((k * 0x9E3779B97F4A7C15) >> t.shift)
}

// put returns the value stored under k, first inserting a zero value if k
// is absent; fresh reports that insert. The pointer is valid until the
// next put, del or sweep.
func (t *table[V]) put(k uint64) (v *V, fresh bool) {
	if t.slots == nil {
		t.alloc(tableMinSlots)
	}
	mask := len(t.slots) - 1
	i := t.home(k)
	for ; t.slots[i].key != emptyKey; i = (i + 1) & mask {
		if t.slots[i].key == k {
			return &t.slots[i].val, false
		}
	}
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
		return t.put(k)
	}
	t.slots[i].key = k
	t.n++
	return &t.slots[i].val, true
}

// grow doubles the slots and reinserts every entry in slot order.
func (t *table[V]) grow() {
	old := t.slots
	t.alloc(2 * len(old))
	mask := len(t.slots) - 1
	for _, s := range old {
		if s.key == emptyKey {
			continue
		}
		i := t.home(s.key)
		for t.slots[i].key != emptyKey {
			i = (i + 1) & mask
		}
		t.slots[i] = s
		t.n++
	}
}

// del removes k and reports whether it was present.
func (t *table[V]) del(k uint64) bool {
	if t.n == 0 {
		return false
	}
	mask := len(t.slots) - 1
	i := t.home(k)
	for t.slots[i].key != k {
		if t.slots[i].key == emptyKey {
			return false
		}
		i = (i + 1) & mask
	}
	t.deleteAt(i)
	return true
}

// deleteAt empties slot hole and closes the gap: each later entry of the
// probe run moves back into the hole when the hole lies between the
// entry's home and its slot, and the hole moves to where it was.
func (t *table[V]) deleteAt(hole int) {
	mask := len(t.slots) - 1
	for j := (hole + 1) & mask; t.slots[j].key != emptyKey; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].key))&mask >= (j-hole)&mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = slot[V]{key: emptyKey}
	t.n--
}

// sweep deletes every entry that drop reports true for, visiting each
// entry exactly once. The scan starts just past an empty slot, and a
// backward shift never carries an entry across an empty slot, so no entry
// moves behind the scan; after a deletion the scan looks at the same slot
// again, which now holds the run's next entry or nothing.
func (t *table[V]) sweep(drop func(k uint64, v *V) bool) {
	if t.n == 0 {
		return
	}
	mask := len(t.slots) - 1
	start := 0
	for t.slots[start].key != emptyKey {
		start++
	}
	for c := 1; c <= len(t.slots); {
		i := (start + c) & mask
		if s := &t.slots[i]; s.key != emptyKey && drop(s.key, &s.val) {
			t.deleteAt(i)
			continue
		}
		c++
	}
}
