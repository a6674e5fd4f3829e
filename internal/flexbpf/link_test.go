package flexbpf

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"flexnet/internal/packet"
)

// linkedTestEnv adapts testEnv to LinkedEnv by translating slots back to
// names via the linked program's slot lists, so linked and unlinked runs
// share one storage implementation.
type linkedTestEnv struct {
	*testEnv
	lp *LinkedProgram
}

func (e *linkedTestEnv) MapLoadSlot(slot int, k uint64) (uint64, bool) {
	return e.MapLoad(e.lp.MapSlots()[slot], k)
}
func (e *linkedTestEnv) MapStoreSlot(slot int, k, v uint64) error {
	return e.MapStore(e.lp.MapSlots()[slot], k, v)
}
func (e *linkedTestEnv) MapDeleteSlot(slot int, k uint64) {
	e.MapDelete(e.lp.MapSlots()[slot], k)
}
func (e *linkedTestEnv) CounterAddSlot(slot int, i, d uint64) {
	e.CounterAdd(e.lp.CounterSlots()[slot], i, d)
}
func (e *linkedTestEnv) MeterExecSlot(slot int, i, b uint64) uint64 {
	return e.MeterExec(e.lp.MeterSlots()[slot], i, b)
}

// linkForTest links prog against fresh table instances carrying the given
// entries, returning the linked program and its LinkedEnv.
func linkForTest(t *testing.T, prog *Program, entries map[string][]*TableEntry) (*LinkedProgram, *linkedTestEnv) {
	t.Helper()
	env := newTestEnv()
	for _, spec := range prog.Tables {
		env.tables[spec.Name] = NewTableInstance(spec)
	}
	lp, err := Link(prog, func(name string) *TableInstance { return env.tables[name] })
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	for _, ti := range env.tables {
		ti.SetActionResolver(lp.ActionIndex)
	}
	for name, es := range entries {
		for _, e := range es {
			if err := env.tables[name].Insert(e); err != nil {
				t.Fatalf("insert into %s: %v", name, err)
			}
		}
	}
	return lp, &linkedTestEnv{env, lp}
}

// checkEquivalence runs the same packet stream through the tree
// interpreter and the linked engine (each against its own copy of the
// state) and requires identical results: verdicts, instruction and
// lookup counts (the latency model feeds on them, so they gate
// simulation determinism), packet contents, and final env state.
func checkEquivalence(t *testing.T, prog *Program, entries map[string][]*TableEntry, mkPkt func(uint64) *packet.Packet, n int) {
	t.Helper()
	if err := Verify(prog); err != nil {
		t.Fatalf("verify: %v", err)
	}
	envA := newTestEnv()
	for _, spec := range prog.Tables {
		envA.tables[spec.Name] = NewTableInstance(spec)
	}
	for name, es := range entries {
		for _, e := range es {
			ec := *e
			ec.Match = append([]MatchValue(nil), e.Match...)
			if err := envA.tables[name].Insert(&ec); err != nil {
				t.Fatalf("insert into %s: %v", name, err)
			}
		}
	}
	lp, envB := linkForTest(t, prog, entries)
	ctx := NewExecContext()
	for i := 0; i < n; i++ {
		pa, pb := mkPkt(uint64(i)), mkPkt(uint64(i))
		ra, errA := Interp{}.Run(prog, pa, envA)
		rb, errB := lp.Run(pb, envB, ctx)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("pkt %d: error divergence: tree=%v linked=%v", i, errA, errB)
		}
		if ra != rb {
			t.Fatalf("pkt %d: result divergence: tree=%+v linked=%+v", i, ra, rb)
		}
		if pa.String() != pb.String() {
			t.Fatalf("pkt %d: packet divergence:\ntree:   %s\nlinked: %s", i, pa, pb)
		}
		if pa.EgressPort != pb.EgressPort {
			t.Fatalf("pkt %d: egress divergence: %d vs %d", i, pa.EgressPort, pb.EgressPort)
		}
	}
	if !reflect.DeepEqual(envA.maps, envB.maps) {
		t.Fatalf("map state divergence:\ntree:   %v\nlinked: %v", envA.maps, envB.maps)
	}
	if !reflect.DeepEqual(envA.counters, envB.counters) {
		t.Fatalf("counter state divergence:\ntree:   %v\nlinked: %v", envA.counters, envB.counters)
	}
}

func TestLinkedEquivalenceACL(t *testing.T) {
	prog := aclProgram(t)
	entries := map[string][]*TableEntry{
		"acl": {
			{
				Priority: 10,
				Match: []MatchValue{
					{Value: uint64(packet.IP(10, 0, 0, 0)), Mask: 0xFF000000},
					{Value: 80},
				},
				Action: "allow",
				Params: []uint64{3},
			},
		},
	}
	checkEquivalence(t, prog, entries, func(i uint64) *packet.Packet {
		src := packet.IP(byte(9+i%3), 1, 2, byte(i))
		return packet.TCPPacket(i, src, packet.IP(192, 168, 0, 1), uint16(1000+i), uint16(80+i%2*363), 0, int(i%512))
	}, 64)
}

// controlFlowProgram exercises every lowered construct: nested If/Else,
// inline Do blocks with mid-block OpRet and forward jumps, an exact
// table with a default action, map has/delete, meter, counter, and
// header ops.
func controlFlowProgram(t *testing.T) *Program {
	t.Helper()
	classify := NewAsm().
		LdField(0, "ipv4.src").
		Hash(1, 0).
		AndImm(1, 255).
		MapHas(2, "seen", 1).
		JEqImm(2, 1, "old").
		MovImm(3, 1).
		MapStore("seen", 1, 3).
		Ret(). // mid-block return: lowered to a jump over the tail
		Label("old").
		emit(Instr{Op: OpMapDelete, Rs: 1, Sym: "seen"}).
		MustBuild()
	meterDo := NewAsm().
		LdField(0, "ipv4.len").
		MovImm(1, 0).
		MeterExec(2, "m", 1, 0).
		StField("meta.color", 2).
		MovImm(4, 1).
		Count("hits", 1, 4).
		MustBuild()
	mark := NewAsm().
		LdParam(0, 0).
		StField("ipv4.dscp", 0).
		AddHdr("int").
		MustBuild()
	slowpath := NewAsm().Punt().MustBuild()
	prog, err := NewProgram("ctl").
		HashMap("seen", 512, 64).
		Counter("hits", 4).
		Meter("m", 2, 1000, 2000, 1500, 3000).
		Action("mark", 1, mark).
		Action("slowpath", 0, slowpath).
		Table(&TableSpec{
			Name:          "route",
			Keys:          []TableKey{{Field: "ipv4.dst", Kind: MatchExact, Bits: 32}},
			Actions:       []string{"mark"},
			DefaultAction: "slowpath",
			Size:          128,
		}).
		Do(classify).
		If(Cond{Field: "ipv4.proto", Op: CmpEq, Value: packet.ProtoTCP},
			[]Stmt{
				{If: &IfStmt{
					Cond: Cond{Field: "tcp.dport", Op: CmpLt, Value: 1024},
					Then: []Stmt{{Apply: "route"}},
					Else: []Stmt{{Do: meterDo}},
				}},
			},
			[]Stmt{{Do: NewAsm().MovImm(0, 7).StField("meta.class", 0).MustBuild()}},
		).
		Do(NewAsm().LdField(0, "meta.class").AddImm(0, 1).StField("meta.class", 0).MustBuild()).
		Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return prog
}

func TestLinkedEquivalenceControlFlow(t *testing.T) {
	prog := controlFlowProgram(t)
	entries := map[string][]*TableEntry{
		"route": {
			ExactEntry("mark", []uint64{11}, uint64(packet.IP(2, 0, 0, 1))),
			ExactEntry("mark", []uint64{22}, uint64(packet.IP(2, 0, 0, 2))),
		},
	}
	checkEquivalence(t, prog, entries, func(i uint64) *packet.Packet {
		dst := packet.IP(2, 0, 0, byte(i%4))
		if i%5 == 0 {
			return packet.UDPPacket(i, packet.IP(1, 1, 1, 1), dst, 53, 53, int(i%256))
		}
		return packet.TCPPacket(i, packet.IP(1, 1, 1, byte(i)), dst, uint16(i), uint16(i%2048), packet.TCPSyn, int(i%256))
	}, 128)
}

func TestLinkedEquivalenceLPM(t *testing.T) {
	fwd := NewAsm().LdParam(0, 0).Forward(0).MustBuild()
	prog, err := NewProgram("lpm").
		Action("fwd", 1, fwd).
		Table(&TableSpec{
			Name:    "rib",
			Keys:    []TableKey{{Field: "ipv4.dst", Kind: MatchLPM, Bits: 32}},
			Actions: []string{"fwd"},
			Size:    64,
		}).
		Apply("rib").
		Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	entries := map[string][]*TableEntry{
		"rib": {
			LPMEntry("fwd", []uint64{1}, uint64(packet.IP(10, 0, 0, 0)), 8),
			LPMEntry("fwd", []uint64{2}, uint64(packet.IP(10, 1, 0, 0)), 16),
			LPMEntry("fwd", []uint64{3}, 0, 0),
		},
	}
	checkEquivalence(t, prog, entries, func(i uint64) *packet.Packet {
		dst := packet.IP(byte(9+i%2), byte(i%3), 0, 1)
		return packet.TCPPacket(i, packet.IP(1, 2, 3, 4), dst, 1, 2, 0, 0)
	}, 32)
}

// TestLinkedInstrCountsExact pins down the count parity rules: synthetic
// linker opcodes cost zero instructions and an inlined OpRet costs one,
// so linked Instrs/Lookups match the tree interpreter exactly.
func TestLinkedInstrCountsExact(t *testing.T) {
	prog := controlFlowProgram(t)
	entries := map[string][]*TableEntry{
		"route": {ExactEntry("mark", []uint64{11}, uint64(packet.IP(2, 0, 0, 1)))},
	}
	lp, env := linkForTest(t, prog, entries)
	ctx := NewExecContext()
	// TCP dport<1024 with a route hit: classify runs 8 instructions on
	// first sight of a flow (the inlined mid-block Ret counts as one,
	// exactly as the tree interpreter counts it), mark runs 3, the
	// trailing Do runs 3. The synthetic lowering opcodes count zero.
	pkt := packet.TCPPacket(1, packet.IP(1, 1, 1, 1), packet.IP(2, 0, 0, 1), 9, 80, 0, 64)
	res, err := lp.Run(pkt, env, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instrs != 8+3+3 || res.Lookups != 1 {
		t.Fatalf("instrs=%d lookups=%d, want 14/1", res.Instrs, res.Lookups)
	}
	// Same flow again: classify takes the "old" path (6 instrs: the
	// Ret-as-jump path is skipped, MapDelete runs instead, no Ret).
	pkt2 := packet.TCPPacket(2, packet.IP(1, 1, 1, 1), packet.IP(2, 0, 0, 1), 9, 80, 0, 64)
	res2, err := lp.Run(pkt2, env, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Instrs != 6+3+3 {
		t.Fatalf("second pass instrs=%d, want 12", res2.Instrs)
	}
}

// TestLinkedRunAllocFree proves the steady-state linked packet path
// performs zero allocations.
func TestLinkedRunAllocFree(t *testing.T) {
	prog := controlFlowProgram(t)
	entries := map[string][]*TableEntry{
		"route": {ExactEntry("mark", []uint64{11}, uint64(packet.IP(2, 0, 0, 1)))},
	}
	lp, env := linkForTest(t, prog, entries)
	ctx := NewExecContext()
	pkt := packet.TCPPacket(1, packet.IP(1, 1, 1, 1), packet.IP(2, 0, 0, 1), 9, 80, 0, 64)
	// Warm once: first run grows the key scratch and seeds the map.
	if _, err := lp.Run(pkt, env, ctx); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := lp.Run(pkt, env, ctx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("linked run allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestTableLookupAllocFree proves exact lookup allocates nothing (the
// key is hashed word-wise; no string key is built).
func TestTableLookupAllocFree(t *testing.T) {
	spec := &TableSpec{
		Name: "t",
		Keys: []TableKey{{Field: "ipv4.dst", Kind: MatchExact, Bits: 32}},
		Size: 1 << 12,
	}
	ti := NewTableInstance(spec)
	for i := 0; i < 1000; i++ {
		if err := ti.Insert(ExactEntry("a", nil, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	keys := []uint64{0}
	allocs := testing.AllocsPerRun(200, func() {
		keys[0] = 42
		if _, _, hit := ti.Lookup(keys); !hit {
			t.Fatal("expected hit")
		}
		keys[0] = 1 << 20
		if _, _, hit := ti.Lookup(keys); hit {
			t.Fatal("expected miss")
		}
	})
	if allocs != 0 {
		t.Fatalf("lookup allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestLinkRejectsUnresolvedSymbols verifies Link refuses a program whose
// table has no runtime instance or whose code names an undeclared map;
// installation turns either into an install error.
func TestLinkRejectsUnresolvedSymbols(t *testing.T) {
	prog, err := NewProgram("bad").
		Action("noop", 0, NewAsm().Ret().MustBuild()).
		Table(&TableSpec{
			Name:    "t",
			Keys:    []TableKey{{Field: "ipv4.dst", Kind: MatchExact, Bits: 32}},
			Actions: []string{"noop"},
			Size:    8,
		}).
		Apply("t").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Link(prog, func(string) *TableInstance { return nil }); err == nil {
		t.Fatal("link with missing table instance should fail")
	}

	// An undeclared map reference is caught by Verify at build time, so
	// hand-assemble the program to prove the linker rejects it on its own.
	undeclared := NewAsm().MovImm(0, 1).MapStore("ghost", 0, 0).MustBuild()
	prog2 := &Program{Name: "bad2", Pipeline: []Stmt{{Do: undeclared}}}
	if _, err := Link(prog2, func(string) *TableInstance { return nil }); err == nil {
		t.Fatal("link with undeclared map should fail")
	}
}

// TestLinkedDefaultActionOnMiss checks the miss path runs the resolved
// default action with the spec's default params.
func TestLinkedDefaultActionOnMiss(t *testing.T) {
	fwd := NewAsm().LdParam(0, 0).Forward(0).MustBuild()
	prog, err := NewProgram("def").
		Action("fwd", 1, fwd).
		Table(&TableSpec{
			Name:          "t",
			Keys:          []TableKey{{Field: "ipv4.dst", Kind: MatchExact, Bits: 32}},
			Actions:       []string{"fwd"},
			DefaultAction: "fwd",
			DefaultParams: []uint64{9},
			Size:          8,
		}).
		Apply("t").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	lp, env := linkForTest(t, prog, nil)
	pkt := packet.TCPPacket(1, 1, 2, 3, 4, 0, 0)
	res, err := lp.Run(pkt, env, NewExecContext())
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != packet.VerdictForward || pkt.EgressPort != 9 {
		t.Fatalf("miss default: verdict=%v egress=%d", res.Verdict, pkt.EgressPort)
	}
	if res.Lookups != 1 {
		t.Fatalf("lookups = %d, want 1", res.Lookups)
	}
}

// TestLinkedEntriesInsertedAfterLink checks entries installed after
// linking (the normal control-plane flow) carry resolved action indexes.
func TestLinkedEntriesInsertedAfterLink(t *testing.T) {
	fwd := NewAsm().LdParam(0, 0).Forward(0).MustBuild()
	prog, err := NewProgram("late").
		Action("fwd", 1, fwd).
		Table(&TableSpec{
			Name:    "t",
			Keys:    []TableKey{{Field: "ipv4.dst", Kind: MatchExact, Bits: 32}},
			Actions: []string{"fwd"},
			Size:    8,
		}).
		Apply("t").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	lp, env := linkForTest(t, prog, nil)
	if err := env.tables["t"].Insert(ExactEntry("fwd", []uint64{5}, 2)); err != nil {
		t.Fatal(err)
	}
	pkt := packet.TCPPacket(1, 1, 2, 3, 4, 0, 0)
	res, err := lp.Run(pkt, env, NewExecContext())
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != packet.VerdictForward || pkt.EgressPort != 5 {
		t.Fatalf("verdict=%v egress=%d, want forward/5", res.Verdict, pkt.EgressPort)
	}
}

// Ensure execError formatting is reachable from the linked engine (an
// entry naming an unknown action on an unresolved instance).
func TestLinkedUnknownActionError(t *testing.T) {
	fwd := NewAsm().LdParam(0, 0).Forward(0).MustBuild()
	prog, err := NewProgram("ua").
		Action("fwd", 1, fwd).
		Table(&TableSpec{
			Name: "t",
			Keys: []TableKey{{Field: "ipv4.dst", Kind: MatchExact, Bits: 32}},
			// No declared action list: raw entries may name any action,
			// which is how an unknown name reaches the linked engine.
			DefaultAction: "fwd",
			DefaultParams: []uint64{1},
			Size:          8,
		}).
		Apply("t").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	env := newTestEnv()
	ti := NewTableInstance(prog.Table("t"))
	env.tables["t"] = ti
	lp, lerr := Link(prog, func(name string) *TableInstance { return env.tables[name] })
	if lerr != nil {
		t.Fatal(lerr)
	}
	// No resolver installed: the entry's action index stays unresolved
	// and names an action the program does not define.
	if err := ti.Insert(ExactEntry("ghost", nil, 2)); err != nil {
		t.Fatal(err)
	}
	pkt := packet.TCPPacket(1, 1, 2, 3, 4, 0, 0)
	_, rerr := lp.Run(pkt, &linkedTestEnv{env, lp}, NewExecContext())
	if rerr == nil {
		t.Fatal("expected unknown-action error")
	}
	want := fmt.Sprintf("table %q selected unknown action %q", "t", "ghost")
	if got := rerr.Error(); !strings.Contains(got, want) {
		t.Fatalf("error %q does not mention %q", got, want)
	}
}
