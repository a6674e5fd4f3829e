package flexbpf

import (
	"sync"
	"testing"
)

// TestTableConcurrentLookup exercises the copy-on-write contract: readers
// (Lookup, LookupEntry, Len, Entries, Stats) run lock-free against
// atomically-published snapshots while writers Insert and Clear
// concurrently. Run under -race in CI; correctness here means no data
// race and no torn snapshot (a hit must always return a consistent
// entry).
func TestTableConcurrentLookup(t *testing.T) {
	specs := []*TableSpec{
		{
			Name: "exact",
			Keys: []TableKey{{Field: "ipv4.dst", Kind: MatchExact, Bits: 32}},
			Size: 4096,
		},
		{
			Name: "lpm",
			Keys: []TableKey{{Field: "ipv4.dst", Kind: MatchLPM, Bits: 32}},
			Size: 4096,
		},
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			ti := NewTableInstance(spec)
			ti.SetActionResolver(func(name string) int32 {
				if name == "act" {
					return 0
				}
				return -1
			})
			mkEntry := func(i int) *TableEntry {
				if spec.Name == "lpm" {
					return LPMEntry("act", []uint64{uint64(i)}, uint64(i)<<8, 24)
				}
				return ExactEntry("act", []uint64{uint64(i)}, uint64(i))
			}
			const writers = 2
			const readers = 4
			const rounds = 400
			stop := make(chan struct{})
			var wWG, rWG sync.WaitGroup
			for w := 0; w < writers; w++ {
				wWG.Add(1)
				go func(w int) {
					defer wWG.Done()
					for i := 0; i < rounds; i++ {
						n := w*rounds + i
						if err := ti.Insert(mkEntry(n)); err != nil {
							t.Error(err)
							return
						}
						if i%97 == 0 && w == 0 {
							ti.Clear()
						}
					}
				}(w)
			}
			for r := 0; r < readers; r++ {
				rWG.Add(1)
				go func() {
					defer rWG.Done()
					keys := make([]uint64, 1)
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						if spec.Name == "lpm" {
							keys[0] = uint64(i%rounds) << 8
						} else {
							keys[0] = uint64(i % rounds)
						}
						if act, _, hit := ti.Lookup(keys); hit && act != "act" {
							t.Errorf("torn entry: action %q", act)
							return
						}
						if e, hit := ti.LookupEntry(keys); hit && e == nil {
							t.Error("hit returned nil entry")
							return
						}
						_ = ti.Len()
						if i%64 == 0 {
							for _, e := range ti.Entries() {
								if e.Action != "act" {
									t.Errorf("torn snapshot: %q", e.Action)
									return
								}
							}
						}
					}
				}()
			}
			wWG.Wait()
			close(stop)
			rWG.Wait()
		})
	}
}

// TestTableConcurrentResolver races SetActionResolver against lookups:
// installing a linked program's resolver on a live table must not tear.
func TestTableConcurrentResolver(t *testing.T) {
	spec := &TableSpec{
		Name: "t",
		Keys: []TableKey{{Field: "ipv4.dst", Kind: MatchExact, Bits: 32}},
		Size: 1024,
	}
	ti := NewTableInstance(spec)
	for i := 0; i < 256; i++ {
		if err := ti.Insert(ExactEntry("act", nil, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		keys := make([]uint64, 1)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			keys[0] = uint64(i % 256)
			if e, hit := ti.LookupEntry(keys); !hit || e.Action != "act" {
				t.Errorf("lookup %d: hit=%v", i, hit)
				return
			}
		}
	}()
	for i := 0; i < 100; i++ {
		idx := int32(i % 4)
		ti.SetActionResolver(func(string) int32 { return idx })
	}
	close(stop)
	wg.Wait()
}
