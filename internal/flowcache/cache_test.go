package flowcache

import (
	"fmt"
	"testing"

	"flexnet/internal/flexbpf"
	"flexnet/internal/packet"
)

func testPacket(sport uint16) *packet.Packet {
	return packet.TCPPacket(1, packet.IP(10, 0, 0, 1), packet.IP(10, 0, 0, 2),
		sport, 80, 0, 100)
}

func testTable(t *testing.T) *flexbpf.TableInstance {
	t.Helper()
	return flexbpf.NewTableInstance(&flexbpf.TableSpec{
		Name:    "t",
		Keys:    []flexbpf.TableKey{{Field: "ipv4.dst", Kind: flexbpf.MatchExact, Bits: 32}},
		Actions: []string{"fwd"},
		Size:    16,
	})
}

func entryFor(pkt *packet.Packet, epoch uint64, gens []TableGen) *Entry {
	fidTTL := packet.InternField("ipv4.ttl")
	ttl, ok := pkt.FieldOKByID(fidTTL)
	return &Entry{
		Epoch:   epoch,
		Gens:    gens,
		Headers: pkt.Headers,
		Pre:     []FieldVal{{FID: fidTTL, Val: ttl, Present: ok}},
		Verdict: packet.VerdictForward,
		Egress:  3,
		Instrs:  7,
		Lookups: 2,
	}
}

func TestMatchValidations(t *testing.T) {
	ti := testTable(t)
	pkt := testPacket(5000)
	e := entryFor(pkt, 1, []TableGen{{TI: ti, Gen: ti.Generation()}})

	if !e.match(pkt) {
		t.Fatal("entry should match the packet it was recorded from")
	}

	// A differing validated field retires the match.
	changed := testPacket(5000)
	changed.SetField("ipv4.ttl", 1)
	if e.match(changed) {
		t.Fatal("entry must not match a packet with a different dependency field")
	}

	// A header-chain difference retires the match: the same fields
	// under a chain without the L4 header.
	hdrless := testPacket(5000)
	hdrless.Headers = packet.Chain{}
	for _, id := range []packet.HeaderID{packet.HeaderEth, packet.HeaderIPv4} {
		if err := hdrless.AddHeaderID(id); err != nil {
			t.Fatal(err)
		}
	}
	if e.match(hdrless) {
		t.Fatal("entry must not match a packet with a different header chain")
	}

	// A table mutation bumps the generation and retires the match.
	if err := ti.Insert(flexbpf.ExactEntry("fwd", nil, 42)); err != nil {
		t.Fatal(err)
	}
	if e.match(pkt) {
		t.Fatal("entry must not match after a pinned table mutates")
	}
	if !e.stale() {
		t.Fatal("entry with a moved table generation must be stale")
	}
}

func TestPayloadLenValidation(t *testing.T) {
	pkt := testPacket(5000)
	e := entryFor(pkt, 1, nil)
	e.CheckLen, e.PayloadLen = true, pkt.PayloadLen

	if !e.match(pkt) {
		t.Fatal("entry should match at the recorded payload length")
	}
	bigger := testPacket(5000)
	bigger.PayloadLen = pkt.PayloadLen + 1
	if e.match(bigger) {
		t.Fatal("CheckLen entry must not match a different payload length")
	}
	e.CheckLen = false
	if !e.match(bigger) {
		t.Fatal("length must be ignored when the pipeline never read it")
	}
}

func TestReplayAppliesWritesAndEgress(t *testing.T) {
	pkt := testPacket(5000)
	fidMark := packet.InternField("meta.mark")
	e := &Entry{
		Verdict: packet.VerdictForward,
		Egress:  9,
		Post: []FieldVal{
			{FID: fidMark, Val: 77, Present: true},
			{FID: packet.InternField("meta.unset"), Present: false},
		},
	}
	e.Replay(pkt)
	if v, ok := pkt.FieldOKByID(fidMark); !ok || v != 77 {
		t.Fatalf("replay did not apply the write set: got %d ok=%v", v, ok)
	}
	if _, ok := pkt.FieldOKByID(packet.InternField("meta.unset")); ok {
		t.Fatal("replay must not apply absent post-values")
	}
	if pkt.EgressPort != 9 {
		t.Fatalf("replay did not set egress: got %d", pkt.EgressPort)
	}

	drop := testPacket(5001)
	e2 := &Entry{Verdict: packet.VerdictDrop, Egress: 9}
	e2.Replay(drop)
	if drop.EgressPort == 9 {
		t.Fatal("drop replay must not set an egress port")
	}
}

func TestLookupInsertAndVariantCap(t *testing.T) {
	c := New(1)
	pkt := testPacket(5000)
	key := pkt.FlowKey()

	if _, ok := c.Lookup(key, 1, pkt); ok {
		t.Fatal("empty cache must miss")
	}
	if !c.Insert(key, entryFor(pkt, 1, nil)) {
		t.Fatal("insert into an empty cache must land")
	}
	if _, ok := c.Lookup(key, 1, pkt); !ok {
		t.Fatal("inserted entry must hit")
	}

	// Same key, distinct validated TTLs → distinct variants, capped.
	landed := 1
	for ttl := uint64(1); ttl <= maxVariants+3; ttl++ {
		v := testPacket(5000)
		v.SetField("ipv4.ttl", ttl)
		if c.Insert(key, entryFor(v, 1, nil)) {
			landed++
		}
	}
	if c.Len() > maxVariants || landed != c.Len() {
		t.Fatalf("variant cap: %d entries for one key, %d inserts reported landing", c.Len(), landed)
	}
}

func TestInsertPrunesStaleVariants(t *testing.T) {
	ti := testTable(t)
	c := New(1)
	pkt := testPacket(5000)
	key := pkt.FlowKey()

	// Fill the key with entries pinned to the current generation, then
	// retire them all with one table mutation.
	for ttl := uint64(1); ttl <= maxVariants; ttl++ {
		v := testPacket(5000)
		v.SetField("ipv4.ttl", ttl)
		c.Insert(key, entryFor(v, 1, []TableGen{{TI: ti, Gen: ti.Generation()}}))
	}
	if err := ti.Insert(flexbpf.ExactEntry("fwd", nil, 1)); err != nil {
		t.Fatal(err)
	}

	// The key is at its variant budget, but every variant is stale: the
	// next insert must prune them and land.
	fresh := entryFor(pkt, 1, []TableGen{{TI: ti, Gen: ti.Generation()}})
	c.Insert(key, fresh)
	if got, ok := c.Lookup(key, 1, pkt); !ok || got != fresh {
		t.Fatal("insert did not prune stale variants to admit a live entry")
	}
	if c.Len() != 1 {
		t.Fatalf("stale variants not pruned: Len=%d", c.Len())
	}
}

// TestInvalidateAndCapacityReset: invalidation is a new cache for the
// next configuration — it starts empty and serves none of the old
// cache's outcomes, while a miss recorded under the old configuration
// lands in the old cache only — and filling a cache past maxEntries
// wholesale-resets it rather than growing.
func TestInvalidateAndCapacityReset(t *testing.T) {
	old := New(1)
	pkt := testPacket(5000)
	key := pkt.FlowKey()
	old.Insert(key, entryFor(pkt, 1, nil))

	next := New(2)
	if next.Len() != 0 {
		t.Fatal("the next configuration's cache must start empty")
	}
	if _, ok := next.Lookup(key, 2, pkt); ok {
		t.Fatal("the next configuration's cache must not serve the old outcome")
	}
	if old.Insert(key, entryFor(testPacket(5001), 1, nil)); next.Len() != 0 {
		t.Fatal("an insert into the old cache must not reach the next one")
	}
	if e, ok := old.Lookup(key, 1, pkt); !ok || e.Epoch != 1 {
		t.Fatal("the old cache must keep serving the configuration it belongs to")
	}

	big := New(3)
	for i := 0; i <= maxEntries; i++ {
		p := packet.TCPPacket(uint64(i), packet.IP(10, 1, byte(i>>8), byte(i)),
			packet.IP(10, 0, 0, 2), uint16(i), 80, 0, 100)
		big.Insert(p.FlowKey(), entryFor(p, 3, nil))
	}
	if big.Len() > maxEntries {
		t.Fatalf("capacity reset did not bound the cache: %d entries", big.Len())
	}
}

func TestDistinctFlowKeysDoNotCollide(t *testing.T) {
	c := New(1)
	for i := 0; i < 64; i++ {
		p := testPacket(uint16(6000 + i))
		e := entryFor(p, 1, nil)
		e.Egress = i
		c.Insert(p.FlowKey(), e)
	}
	for i := 0; i < 64; i++ {
		p := testPacket(uint16(6000 + i))
		e, ok := c.Lookup(p.FlowKey(), 1, p)
		if !ok || e.Egress != i {
			t.Fatalf("flow %d: got entry %+v ok=%v", i, e, ok)
		}
	}
	if c.Len() != 64 {
		t.Fatalf("Len: got %d, want 64", c.Len())
	}
}

func TestStatsString(t *testing.T) {
	// Keep the fmt import honest and document the snapshot shape.
	s := Stats{Hits: 1, Misses: 2, Inserts: 3, Invalidations: 4}
	got := fmt.Sprintf("%+v", s)
	want := "{Hits:1 Misses:2 Inserts:3 Invalidations:4}"
	if got != want {
		t.Fatalf("stats snapshot: got %s, want %s", got, want)
	}
}
