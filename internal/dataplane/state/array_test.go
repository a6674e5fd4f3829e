package state

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// arrayModelMismatch drives an array map of max slots and a reference
// model (a Go map of the written slots) through ops seeded random
// operations — stores (zero values and out-of-range keys included),
// loads, Len, Export, imports (duplicate and out-of-range keys,
// oversized and wrong-kind ones included) and resets — and returns the
// first result on which the two disagree, or nil.
func arrayModelMismatch(seed int64, max, ops int) error {
	r := rand.New(rand.NewSource(seed))
	m := NewMap("regs", KindArray, max)
	model := map[uint64]uint64{}
	key := func() uint64 { return uint64(r.Intn(max + max/4 + 1)) } // ~20 % out of range
	val := func() uint64 {
		if r.Intn(3) == 0 {
			return 0
		}
		return r.Uint64() >> uint(r.Intn(64))
	}
	for i := 0; i < ops; i++ {
		switch op := r.Intn(100); {
		case op < 45:
			k, v := key(), val()
			err := m.Store(k, v)
			if (err == nil) != (k < uint64(max)) {
				return fmt.Errorf("op %d: Store(%d, %d) = %v", i, k, v, err)
			}
			if err == nil {
				model[k] = v
			}
		case op < 75:
			k := key()
			v, ok := m.Load(k)
			if ok != (k < uint64(max)) || v != model[k] {
				return fmt.Errorf("op %d: Load(%d) = %d, %v; model %d", i, k, v, ok, model[k])
			}
		case op < 82:
			if n := m.Len(); n != len(model) {
				return fmt.Errorf("op %d: Len() = %d; model %d", i, n, len(model))
			}
		case op < 92:
			l := m.Export()
			want := make([]KV, 0, len(model))
			for k, v := range model {
				want = append(want, KV{k, v})
			}
			sort.Slice(want, func(a, b int) bool { return want[a].Key < want[b].Key })
			if l.Name != "regs" || l.Kind != "map" || l.Params["kind"] != uint64(KindArray) || l.Params["max"] != uint64(max) {
				return fmt.Errorf("op %d: Export header %q %q %v", i, l.Name, l.Kind, l.Params)
			}
			if !reflect.DeepEqual(l.Entries, want) {
				return fmt.Errorf("op %d: Export() = %v; model %v", i, l.Entries, want)
			}
		case op < 99:
			l := Logical{Name: "regs", Kind: "map"}
			if r.Intn(10) == 0 {
				l.Kind = "counter"
			}
			n := r.Intn(max + 3)   // now and then more entries than slots
			wild := r.Intn(4) == 0 // keys may fall out of range
			for j := 0; j < n; j++ {
				k := key()
				if !wild {
					k %= uint64(max)
				}
				if j > 0 && r.Intn(5) == 0 {
					k = l.Entries[r.Intn(j)].Key // a duplicate key
				}
				l.Entries = append(l.Entries, KV{k, val()})
			}
			err := m.Import(l)
			// The model: a wrong kind or too many entries changes nothing;
			// otherwise the map is emptied and the entries land in order
			// up to the first out-of-range key, which fails the import.
			var wantErr bool
			if l.Kind != "map" || len(l.Entries) > max {
				wantErr = true
			} else {
				model = map[uint64]uint64{}
				for _, kv := range l.Entries {
					if kv.Key >= uint64(max) {
						wantErr = true
						break
					}
					model[kv.Key] = kv.Val
				}
			}
			if (err != nil) != wantErr {
				return fmt.Errorf("op %d: Import(%d entries, kind %q) = %v; model wants error %v", i, len(l.Entries), l.Kind, err, wantErr)
			}
		default:
			m.Reset()
			model = map[uint64]uint64{}
		}
	}
	return nil
}

// TestArrayMapMatchesModel checks the dense array map against the
// semantics of a Go map of its written slots, at sizes that fill part of
// a bitset word, exactly one, and several.
func TestArrayMapMatchesModel(t *testing.T) {
	for _, c := range []struct {
		seed     int64
		max, ops int
	}{{1, 8, 2000}, {2, 64, 3000}, {3, 200, 10000}} {
		if err := arrayModelMismatch(c.seed, c.max, c.ops); err != nil {
			t.Errorf("seed %d, %d slots: %v", c.seed, c.max, err)
		}
	}
}

// BenchmarkMapArrayLoadStore is one heavy-hitter row update: a load and
// a store of the incremented value at a pseudo-random slot of a
// 4,096-slot array map.
func BenchmarkMapArrayLoadStore(b *testing.B) {
	m := NewMap("row", KindArray, 4096)
	k := uint64(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k = k*6364136223846793005 + 1442695040888963407
		slot := (k >> 33) % 4096
		v, _ := m.Load(slot)
		if err := m.Store(slot, v+1); err != nil {
			b.Fatal(err)
		}
	}
}
