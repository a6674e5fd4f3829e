package state

import (
	"math/rand"
	"testing"
)

func TestArrayMap(t *testing.T) {
	m := NewMap("regs", KindArray, 8)
	if v, ok := m.Load(3); !ok || v != 0 {
		t.Fatalf("fresh array slot: v=%d ok=%v", v, ok)
	}
	if _, ok := m.Load(8); ok {
		t.Fatal("out-of-range load succeeded")
	}
	if err := m.Store(3, 42); err != nil {
		t.Fatal(err)
	}
	if err := m.Store(8, 1); err == nil {
		t.Fatal("out-of-range store succeeded")
	}
	if v, _ := m.Load(3); v != 42 {
		t.Fatalf("load = %d", v)
	}
}

func TestHashMapCapacity(t *testing.T) {
	m := NewMap("flows", KindHash, 2)
	if err := m.Store(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := m.Store(2, 20); err != nil {
		t.Fatal(err)
	}
	if err := m.Store(3, 30); err == nil {
		t.Fatal("store beyond capacity succeeded")
	}
	// Overwriting an existing key is allowed at capacity.
	if err := m.Store(1, 11); err != nil {
		t.Fatalf("overwrite at capacity: %v", err)
	}
	if m.Len() != 2 {
		t.Fatalf("len = %d", m.Len())
	}
}

func TestLRUMapEviction(t *testing.T) {
	m := NewMap("cache", KindLRU, 3)
	m.Store(1, 1)
	m.Store(2, 2)
	m.Store(3, 3)
	// Touch 1 and 2 so 3 is the LRU.
	m.Load(1)
	m.Load(2)
	m.Store(4, 4)
	if _, ok := m.Load(3); ok {
		t.Fatal("LRU entry 3 not evicted")
	}
	for _, k := range []uint64{1, 2, 4} {
		if _, ok := m.Load(k); !ok {
			t.Fatalf("entry %d evicted wrongly", k)
		}
	}
}

func TestLRUNeverExceedsCapacity(t *testing.T) {
	m := NewMap("cache", KindLRU, 16)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		m.Store(uint64(r.Intn(100)), uint64(i))
		if m.Len() > 16 {
			t.Fatalf("LRU grew to %d", m.Len())
		}
	}
}

func TestMapExportImportRoundTrip(t *testing.T) {
	m := NewMap("flows", KindHash, 64)
	for i := uint64(0); i < 20; i++ {
		m.Store(i*7, i)
	}
	l := m.Export()
	if l.Kind != "map" || len(l.Entries) != 20 {
		t.Fatalf("logical = %+v", l)
	}
	// Entries must be sorted by key (determinism for digests).
	for i := 1; i < len(l.Entries); i++ {
		if l.Entries[i-1].Key >= l.Entries[i].Key {
			t.Fatal("logical entries not sorted")
		}
	}
	n := NewMap("flows", KindHash, 64)
	if err := n.Import(l); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 20; i++ {
		if v, ok := n.Load(i * 7); !ok || v != i {
			t.Fatalf("key %d: v=%d ok=%v", i*7, v, ok)
		}
	}
}

func TestCrossEncodingImport(t *testing.T) {
	// The §3.1 claim: state virtualization lets a register-file (array)
	// encoding move to a flow-table (hash/LRU) encoding and back.
	arr := NewMap("st", KindArray, 16)
	for i := uint64(0); i < 16; i++ {
		arr.Store(i, i*i)
	}
	lru := NewMap("st", KindLRU, 16)
	if err := lru.Import(arr.Export()); err != nil {
		t.Fatalf("array→lru: %v", err)
	}
	back := NewMap("st", KindArray, 16)
	if err := back.Import(lru.Export()); err != nil {
		t.Fatalf("lru→array: %v", err)
	}
	for i := uint64(0); i < 16; i++ {
		if v, _ := back.Load(i); v != i*i {
			t.Fatalf("slot %d = %d after round trip", i, v)
		}
	}
	// Capacity is still validated across encodings.
	big := NewMap("st", KindHash, 64)
	for i := uint64(0); i < 40; i++ {
		big.Store(i, 1)
	}
	small := NewMap("st", KindArray, 16)
	if err := small.Import(big.Export()); err == nil {
		t.Fatal("oversized import accepted")
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter("pkts", 4)
	c.Add(0, 5)
	c.Add(3, 7)
	c.Add(99, 1) // dropped
	if c.Value(0) != 5 || c.Value(3) != 7 || c.Sum() != 12 {
		t.Fatalf("counter: %d %d sum=%d", c.Value(0), c.Value(3), c.Sum())
	}
	l := c.Export()
	d := NewCounter("pkts", 4)
	if err := d.Import(l); err != nil {
		t.Fatal(err)
	}
	if d.Sum() != 12 {
		t.Fatalf("imported sum = %d", d.Sum())
	}
	d.Reset()
	if d.Sum() != 0 {
		t.Fatal("reset failed")
	}
	// Import into smaller counter fails.
	e := NewCounter("pkts", 2)
	if err := e.Import(l); err == nil {
		t.Fatal("oversized counter import accepted")
	}
}

func TestMeterColors(t *testing.T) {
	// CIR 1000 B/s, PIR 2000 B/s, buckets 1000/2000 B.
	m := NewMeter("police", 1, 1000, 2000, 1000, 2000)
	now := uint64(0)
	// First packet: buckets full → green.
	if c := m.Exec(0, 500, now); c != ColorGreen {
		t.Fatalf("first: %d", c)
	}
	// Drain committed bucket → yellow (peak still has tokens).
	if c := m.Exec(0, 600, now); c != ColorYellow {
		t.Fatalf("second: %d", c)
	}
	// Drain peak bucket → red.
	if c := m.Exec(0, 1000, now); c != ColorRed {
		t.Fatalf("third: %d", c)
	}
	// After one second both buckets refill by their rates.
	now += 1_000_000_000
	if c := m.Exec(0, 900, now); c != ColorGreen {
		t.Fatalf("after refill: %d", c)
	}
}

func TestMeterOutOfRangeRed(t *testing.T) {
	m := NewMeter("police", 1, 1000, 2000, 1000, 2000)
	if c := m.Exec(5, 1, 0); c != ColorRed {
		t.Fatalf("out-of-range index colored %d", c)
	}
}

func TestMeterExportImportRebase(t *testing.T) {
	m := NewMeter("police", 2, 1000, 2000, 1000, 2000)
	m.Exec(0, 900, 0) // drain most of committed bucket
	l := m.Export()
	n := NewMeter("police", 2, 1000, 2000, 1000, 2000)
	if err := n.Import(l); err != nil {
		t.Fatal(err)
	}
	// Far-future first use must NOT refill from time zero: levels carry
	// over and the clock re-bases.
	if c := n.Exec(0, 900, 3_600_000_000_000); c != ColorYellow {
		t.Fatalf("rebased meter colored %d, want yellow", c)
	}
}

func TestStoreExportImportAll(t *testing.T) {
	st := NewStore()
	m := NewMap("flows", KindHash, 32)
	c := NewCounter("pkts", 4)
	mt := NewMeter("police", 2, 1000, 2000, 1000, 2000)
	for _, o := range []Object{m, c, mt} {
		if err := st.Add(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Add(NewMap("flows", KindHash, 1)); err == nil {
		t.Fatal("duplicate object name accepted")
	}
	m.Store(1, 100)
	c.Add(0, 9)
	mt.Exec(1, 900, 0) // drain most of cell 1's committed bucket

	ls := st.ExportAll()
	if len(ls) != 3 {
		t.Fatalf("exported %d objects", len(ls))
	}

	// Destination store with same object shapes.
	dst := NewStore()
	dm := NewMap("flows", KindLRU, 32) // different encoding on purpose
	dc := NewCounter("pkts", 4)
	dmt := NewMeter("police", 2, 1000, 2000, 1000, 2000)
	for _, o := range []Object{dm, dc, dmt} {
		dst.Add(o)
	}
	if err := dst.ImportAll(ls); err != nil {
		t.Fatal(err)
	}
	if v, _ := dm.Load(1); v != 100 {
		t.Fatal("map state lost")
	}
	if dc.Value(0) != 9 {
		t.Fatal("counter state lost")
	}
	// The drained cell carries its levels (no refill: the clock
	// re-bases on first use), so 900 more bytes exceed the committed
	// bucket but fit the peak one.
	if c := dmt.Exec(1, 900, 3_600_000_000_000); c != ColorYellow {
		t.Fatalf("meter state lost: drained cell colored %d, want yellow", c)
	}

	// Import referencing unknown object errors.
	if err := dst.ImportAll([]Logical{{Name: "ghost", Kind: "map"}}); err == nil {
		t.Fatal("unknown object import accepted")
	}

	// Typed accessors.
	if dst.Map("flows") == nil || dst.Counter("pkts") == nil || dst.Map("pkts") != nil {
		t.Fatal("typed accessors broken")
	}
}

func TestStoreImportResetsAbsent(t *testing.T) {
	st := NewStore()
	c := NewCounter("pkts", 2)
	st.Add(c)
	c.Add(0, 5)
	if err := st.ImportAll(nil); err != nil {
		t.Fatal(err)
	}
	if c.Sum() != 0 {
		t.Fatal("absent object not reset on import")
	}
}

func TestWrongKindImports(t *testing.T) {
	m := NewMap("x", KindHash, 4)
	if err := m.Import(Logical{Name: "x", Kind: "counter"}); err == nil {
		t.Fatal("map imported counter state")
	}
	c := NewCounter("x", 4)
	if err := c.Import(Logical{Name: "x", Kind: "map"}); err == nil {
		t.Fatal("counter imported map state")
	}
	mt := NewMeter("x", 1, 1, 1, 1, 1)
	if err := mt.Import(Logical{Name: "x", Kind: "counter"}); err == nil {
		t.Fatal("meter imported counter state")
	}
}
