package flexbpf

import (
	"sync"
	"sync/atomic"
	"testing"
)

// bindForTest links a program that applies ti and defines each named
// action, reading numParams parameters, so ti is bound to its actions.
func bindForTest(t testing.TB, ti *TableInstance, numParams int, actions ...string) {
	t.Helper()
	p := &Program{Name: "bind", Tables: []*TableSpec{ti.Spec}, Actions: map[string]*Action{},
		Pipeline: []Stmt{{Apply: ti.Spec.Name}}}
	for _, a := range actions {
		p.Actions[a] = &Action{Name: a, NumParams: numParams, Body: NewAsm().Ret().MustBuild()}
	}
	if _, err := Link(p, func(string) *TableInstance { return ti }); err != nil {
		t.Fatal(err)
	}
}

// lpmTable is an LPM table bound to a program whose "route" action reads
// one parameter.
func lpmTable(t testing.TB, size int) *TableInstance {
	ti := NewTableInstance(&TableSpec{
		Name:    "routes",
		Keys:    []TableKey{{Field: "ipv4.dst", Kind: MatchLPM, Bits: 32}},
		Actions: []string{"route"},
		Size:    size,
	})
	bindForTest(t, ti, 1, "route")
	return ti
}

// TestReplaceAllMatchesInsert checks ReplaceAll publishes exactly the
// state a sequence of Inserts would, including match ordering.
func TestReplaceAllMatchesInsert(t *testing.T) {
	mk := func(i int, prefix int) *TableEntry {
		return LPMEntry("route", []uint64{uint64(i)}, uint64(i)<<8, prefix)
	}
	a, b := lpmTable(t, 64), lpmTable(t, 64)
	var batch []*TableEntry
	for i := 0; i < 10; i++ {
		e := mk(i, 16+(i%3)*8)
		if err := a.Insert(e); err != nil {
			t.Fatal(err)
		}
		batch = append(batch, e)
	}
	if err := b.ReplaceAll(batch); err != nil {
		t.Fatal(err)
	}
	ae, be := a.Entries(), b.Entries()
	if len(ae) != len(be) {
		t.Fatalf("lengths differ: %d vs %d", len(ae), len(be))
	}
	for i := range ae {
		if ae[i].Match[0] != be[i].Match[0] || ae[i].Params[0] != be[i].Params[0] {
			t.Fatalf("entry %d differs: insert %+v, replaceall %+v", i, ae[i], be[i])
		}
	}
	// Lookups hit the resolved action.
	if _, _, hit := b.Lookup([]uint64{3 << 8}); !hit {
		t.Fatal("lookup missed after ReplaceAll")
	}
}

// TestReplaceAllValidation checks size, arity, action, parameter-count
// and exact-dup errors, and that a failed call leaves the previous
// contents intact.
func TestReplaceAllValidation(t *testing.T) {
	ti := lpmTable(t, 2)
	good := []*TableEntry{LPMEntry("route", []uint64{1}, 0x0a000001, 32)}
	if err := ti.ReplaceAll(good); err != nil {
		t.Fatal(err)
	}
	cases := [][]*TableEntry{
		{ // over size
			LPMEntry("route", []uint64{1}, 1, 32),
			LPMEntry("route", []uint64{2}, 2, 32),
			LPMEntry("route", []uint64{3}, 3, 32),
		},
		{ // wrong arity
			{Action: "route", Match: []MatchValue{{Value: 1}, {Value: 2}}},
		},
		{ // unknown action
			LPMEntry("nosuch", []uint64{1}, 1, 32),
		},
		{ // fewer params than the bound action reads
			LPMEntry("route", nil, 1, 32),
		},
	}
	for i, bad := range cases {
		if err := ti.ReplaceAll(bad); err == nil {
			t.Fatalf("case %d: ReplaceAll succeeded, want error", i)
		}
		if got := ti.Len(); got != 1 {
			t.Fatalf("case %d: failed ReplaceAll mutated the table (len %d)", i, got)
		}
	}

	exact := NewTableInstance(&TableSpec{
		Name: "ex",
		Keys: []TableKey{{Field: "ipv4.dst", Kind: MatchExact, Bits: 32}},
		Size: 8,
	})
	dup := []*TableEntry{
		ExactEntry("", []uint64{1}, 7),
		ExactEntry("", []uint64{2}, 7),
	}
	if err := exact.ReplaceAll(dup); err == nil {
		t.Fatal("duplicate exact entries accepted")
	}
	if exact.Len() != 0 {
		t.Fatal("failed exact ReplaceAll left entries behind")
	}
	// Exact replace that is valid builds a working index.
	if err := exact.ReplaceAll([]*TableEntry{
		ExactEntry("", []uint64{1}, 7),
		ExactEntry("", []uint64{2}, 9),
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, hit := exact.Lookup([]uint64{9}); !hit {
		t.Fatal("exact lookup missed after ReplaceAll")
	}
}

// TestReplaceAllNoEmptyWindow hammers lookups of a key present in every
// generation while a writer replaces the whole table: the old
// clear-then-reinsert path exposed an empty table mid-rewrite; the
// atomic snapshot store must never miss.
func TestReplaceAllNoEmptyWindow(t *testing.T) {
	ti := lpmTable(t, 64)
	stable := LPMEntry("route", []uint64{99}, 0x0a00ff00, 32)
	if err := ti.ReplaceAll([]*TableEntry{stable}); err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var misses atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, _, hit := ti.Lookup([]uint64{0x0a00ff00}); !hit {
					misses.Add(1)
				}
			}
		}()
	}
	for gen := 0; gen < 2000; gen++ {
		batch := []*TableEntry{stable}
		for i := 0; i < gen%16; i++ {
			batch = append(batch, LPMEntry("route", []uint64{uint64(i)}, uint64(i)<<8, 32))
		}
		if err := ti.ReplaceAll(batch); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if n := misses.Load(); n != 0 {
		t.Fatalf("stable key missed %d times during replaces — non-atomic publish", n)
	}
}
