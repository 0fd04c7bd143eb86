package shard

import (
	"testing"

	"retri/internal/xrand"
)

// find walks k's probe run from its home to the first empty slot, the
// lookup put and del begin with. A key it cannot reach is lost to every
// later put and del, so the tests look keys up through it.
func (t *table[V]) find(k uint64) (*V, bool) {
	if t.n == 0 {
		return nil, false
	}
	mask := len(t.slots) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		switch t.slots[i].key {
		case k:
			return &t.slots[i].val, true
		case emptyKey:
			return nil, false
		}
	}
}

// TestTableMatchesMap runs seeded random sequences of insert, overwrite,
// find, delete and sweep against a Go map. Half the sequences start from
// two slots, so probe runs wrap past the last slot and the table doubles
// mid-sequence; small key pools keep tables small and runs long.
func TestTableMatchesMap(t *testing.T) {
	grew := 0
	for seed := uint64(1); seed <= 40; seed++ {
		rng := xrand.NewSource(seed).Stream("test", "table")
		keys := make([]uint64, 1+rng.IntN(48))
		for i := range keys {
			for keys[i] = rng.Uint64(); keys[i] == emptyKey; keys[i] = rng.Uint64() {
			}
		}
		var tb table[uint64]
		if seed%2 == 0 {
			tb.alloc(2)
		}
		start := len(tb.slots)
		ref := make(map[uint64]uint64)
		for op := 0; op < 4000; op++ {
			k := keys[rng.IntN(len(keys))]
			want, in := ref[k]
			switch c := rng.IntN(20); {
			case c < 8: // insert or overwrite
				v, fresh := tb.put(k)
				if fresh == in {
					t.Fatalf("seed %d op %d: put(%#x) fresh=%v, key present=%v", seed, op, k, fresh, in)
				}
				if !fresh && *v != want {
					t.Fatalf("seed %d op %d: put(%#x) holds %d, want %d", seed, op, k, *v, want)
				}
				if fresh && *v != 0 {
					t.Fatalf("seed %d op %d: fresh put(%#x) holds %d, want 0", seed, op, k, *v)
				}
				*v = rng.Uint64()
				ref[k] = *v
			case c < 13:
				v, ok := tb.find(k)
				if ok != in || ok && *v != want {
					t.Fatalf("seed %d op %d: find(%#x) = %v, want %d, %v", seed, op, k, ok, want, in)
				}
			case c < 19:
				if got := tb.del(k); got != in {
					t.Fatalf("seed %d op %d: del(%#x) = %v, key present=%v", seed, op, k, got, in)
				}
				delete(ref, k)
			default: // sweep a random third, checking each entry is visited once
				visits := make(map[uint64]int)
				tb.sweep(func(k uint64, v *uint64) bool {
					visits[k]++
					if *v != ref[k] {
						t.Fatalf("seed %d op %d: sweep saw %#x = %d, want %d", seed, op, k, *v, ref[k])
					}
					return *v%3 == 0
				})
				if len(visits) != len(ref) {
					t.Fatalf("seed %d op %d: sweep visited %d keys of %d", seed, op, len(visits), len(ref))
				}
				for k, v := range ref {
					if visits[k] != 1 {
						t.Fatalf("seed %d op %d: sweep visited %#x %d times", seed, op, k, visits[k])
					}
					if v%3 == 0 {
						delete(ref, k)
					}
				}
			}
			if tb.n != len(ref) {
				t.Fatalf("seed %d op %d: table holds %d entries, map %d", seed, op, tb.n, len(ref))
			}
			if 2*tb.n > len(tb.slots) {
				t.Fatalf("seed %d op %d: %d entries in %d slots, over half full", seed, op, tb.n, len(tb.slots))
			}
		}
		for _, k := range keys {
			want, in := ref[k]
			if v, ok := tb.find(k); ok != in || ok && *v != want {
				t.Fatalf("seed %d: final find(%#x) = %v, want %d, %v", seed, k, ok, want, in)
			}
		}
		if start > 0 && len(tb.slots) > start {
			grew++
		}
	}
	if grew == 0 {
		t.Fatal("no two-slot table grew mid-sequence")
	}
}

// TestTableWrapsAtLastSlot deletes from a probe run that wraps past the
// last slot of a four-slot table: the entries after the hole must shift
// back across the wrap, and only those whose home allows it.
func TestTableWrapsAtLastSlot(t *testing.T) {
	var tb table[int]
	tb.alloc(4)
	// Collect keys by home slot so the run's layout is known.
	byHome := make(map[int][]uint64)
	for k := uint64(0); len(byHome[3]) < 2 || len(byHome[0]) < 1; k++ {
		h := tb.home(k)
		byHome[h] = append(byHome[h], k)
	}
	a, b, c := byHome[3][0], byHome[3][1], byHome[0][0]
	// Two slots keep the table at half load: a sits in its home, the last
	// slot, and b wraps to slot 0.
	tb.put(a)
	tb.put(b)
	if tb.slots[3].key != a || tb.slots[0].key != b {
		t.Fatalf("layout %v, want a in slot 3 and b wrapped to slot 0", tb.slots)
	}
	if !tb.del(a) {
		t.Fatal("del(a) missed")
	}
	if tb.slots[3].key != b || tb.slots[0].key != emptyKey {
		t.Fatalf("after del(a): %v, want b shifted back across the wrap", tb.slots)
	}
	// c's home is slot 0: deleting b must not pull it back into slot 3.
	v, _ := tb.put(c)
	*v = 3
	if tb.slots[0].key != c {
		t.Fatalf("c not in its home slot: %v", tb.slots)
	}
	tb.del(b)
	if tb.slots[3].key != emptyKey || tb.slots[0].key != c {
		t.Fatalf("after del(b): %v, want c left in its home", tb.slots)
	}
	if v, ok := tb.find(c); !ok || *v != 3 {
		t.Fatalf("find(c) = %v, %v", v, ok)
	}
}

// TestTableNeverAllocated: the zero table finds nothing, deletes nothing
// and sweeps nothing, and stays unallocated.
func TestTableNeverAllocated(t *testing.T) {
	var tb table[partVal]
	if _, ok := tb.find(42); ok {
		t.Error("zero table found a key")
	}
	if tb.del(42) {
		t.Error("zero table deleted a key")
	}
	tb.sweep(func(uint64, *partVal) bool {
		t.Error("zero table swept an entry")
		return true
	})
	if tb.slots != nil || tb.n != 0 {
		t.Errorf("zero table allocated: %d slots, %d entries", len(tb.slots), tb.n)
	}
}
