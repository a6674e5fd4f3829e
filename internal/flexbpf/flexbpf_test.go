package flexbpf

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"flexnet/internal/packet"
)

// testEnv is a reference Env for interpreter tests.
type testEnv struct {
	maps     map[string]map[uint64]uint64
	counters map[string]map[uint64]uint64
	// meters accumulates the bytes charged per meter cell, so state
	// comparisons see meter traffic too (every cell stays green).
	meters map[string]map[uint64]uint64
	tables map[string]*TableInstance
	now    uint64
	rnd    *rand.Rand
}

func newTestEnv() *testEnv {
	return &testEnv{
		maps:     map[string]map[uint64]uint64{},
		counters: map[string]map[uint64]uint64{},
		meters:   map[string]map[uint64]uint64{},
		tables:   map[string]*TableInstance{},
		rnd:      rand.New(rand.NewSource(1)),
	}
}

func (e *testEnv) MapLoad(m string, k uint64) (uint64, bool) {
	v, ok := e.maps[m][k]
	return v, ok
}
func (e *testEnv) MapStore(m string, k, v uint64) error {
	if e.maps[m] == nil {
		e.maps[m] = map[uint64]uint64{}
	}
	e.maps[m][k] = v
	return nil
}
func (e *testEnv) MapDelete(m string, k uint64) { delete(e.maps[m], k) }
func (e *testEnv) CounterAdd(c string, i, d uint64) {
	if e.counters[c] == nil {
		e.counters[c] = map[uint64]uint64{}
	}
	e.counters[c][i] += d
}
func (e *testEnv) MeterExec(m string, i, b uint64) uint64 {
	if e.meters[m] == nil {
		e.meters[m] = map[uint64]uint64{}
	}
	e.meters[m][i] += b
	return 0
}
func (e *testEnv) TableLookup(t string, keys []uint64) (string, []uint64, bool) {
	ti, ok := e.tables[t]
	if !ok {
		return "", nil, false
	}
	return ti.Lookup(keys)
}
func (e *testEnv) Now() uint64  { return e.now }
func (e *testEnv) Rand() uint64 { return e.rnd.Uint64() }

func run(t *testing.T, prog *Program, pkt *packet.Packet, env Env) ExecResult {
	t.Helper()
	res, err := Interp{}.Run(prog, pkt, env)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

// aclProgram builds a small but representative program: a ternary ACL
// table plus a flow counter map.
func aclProgram(t testing.TB) *Program {
	t.Helper()
	allow := NewAsm().
		LdParam(0, 0).
		Forward(0).
		MustBuild()
	deny := NewAsm().Drop().MustBuild()
	count := NewAsm().
		FlowHash(0).
		MapLoad(1, "flows", 0).
		AddImm(1, 1).
		MapStore("flows", 0, 1).
		Ret().
		MustBuild()
	p, err := NewProgram("acl").
		HashMap("flows", 1024, 64).
		Action("allow", 1, allow).
		Action("deny", 0, deny).
		Table(&TableSpec{
			Name: "acl",
			Keys: []TableKey{
				{Field: "ipv4.src", Kind: MatchTernary, Bits: 32},
				{Field: "tcp.dport", Kind: MatchExact, Bits: 16},
			},
			Actions:       []string{"allow", "deny"},
			DefaultAction: "deny",
			Size:          64,
		}).
		Do(count).
		Apply("acl").
		Build()
	if err != nil {
		t.Fatalf("build acl: %v", err)
	}
	return p
}

func TestInterpACL(t *testing.T) {
	prog := aclProgram(t)
	env := newTestEnv()
	ti := NewTableInstance(prog.Table("acl"))
	env.tables["acl"] = ti

	// Allow 10.0.0.0/8 to port 80 out of port 3.
	err := ti.Insert(&TableEntry{
		Priority: 10,
		Match: []MatchValue{
			{Value: uint64(packet.IP(10, 0, 0, 0)), Mask: 0xFF000000},
			{Value: 80},
		},
		Action: "allow",
		Params: []uint64{3},
	})
	if err != nil {
		t.Fatal(err)
	}

	good := packet.TCPPacket(1, packet.IP(10, 1, 2, 3), packet.IP(192, 168, 0, 1), 1234, 80, 0, 0)
	res := run(t, prog, good, env)
	if res.Verdict != packet.VerdictForward || good.EgressPort != 3 {
		t.Fatalf("allowed packet: verdict=%v egress=%d", res.Verdict, good.EgressPort)
	}
	if res.Lookups != 1 {
		t.Fatalf("lookups = %d, want 1", res.Lookups)
	}

	bad := packet.TCPPacket(2, packet.IP(11, 1, 2, 3), packet.IP(192, 168, 0, 1), 1234, 80, 0, 0)
	res = run(t, prog, bad, env)
	if res.Verdict != packet.VerdictDrop {
		t.Fatalf("denied packet: verdict=%v", res.Verdict)
	}

	wrongPort := packet.TCPPacket(3, packet.IP(10, 1, 2, 3), packet.IP(192, 168, 0, 1), 1234, 443, 0, 0)
	res = run(t, prog, wrongPort, env)
	if res.Verdict != packet.VerdictDrop {
		t.Fatalf("port-mismatch packet: verdict=%v", res.Verdict)
	}

	// Flow counter incremented once per packet.
	total := uint64(0)
	for _, v := range env.maps["flows"] {
		total += v
	}
	if total != 3 {
		t.Fatalf("flow count total = %d, want 3", total)
	}
}

func TestInterpIfElse(t *testing.T) {
	markTCP := NewAsm().MovImm(0, 1).StField("meta.l4", 0).Ret().MustBuild()
	markUDP := NewAsm().MovImm(0, 2).StField("meta.l4", 0).Ret().MustBuild()
	p, err := NewProgram("classify").
		If(Cond{Field: "ipv4.proto", Op: CmpEq, Value: packet.ProtoTCP},
			[]Stmt{SDo(markTCP)},
			[]Stmt{SDo(markUDP)}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	env := newTestEnv()
	tcp := packet.TCPPacket(1, 1, 2, 3, 4, 0, 0)
	run(t, p, tcp, env)
	if tcp.Field("meta.l4") != 1 {
		t.Fatalf("tcp branch: meta.l4 = %d", tcp.Field("meta.l4"))
	}
	udp := packet.UDPPacket(2, 1, 2, 3, 4, 0)
	run(t, p, udp, env)
	if udp.Field("meta.l4") != 2 {
		t.Fatalf("udp branch: meta.l4 = %d", udp.Field("meta.l4"))
	}
}

func TestInterpHasHeaderCond(t *testing.T) {
	setFlag := NewAsm().MovImm(0, 7).StField("meta.vlan", 0).Ret().MustBuild()
	p, err := NewProgram("vlancheck").
		If(Cond{HasHeader: "vlan"}, []Stmt{SDo(setFlag)}, nil).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	env := newTestEnv()
	withVLAN := packet.UDPPacket(1, 1, 2, 1, 2, 0)
	if err := withVLAN.TagVLAN(5); err != nil {
		t.Fatal(err)
	}
	run(t, p, withVLAN, env)
	if withVLAN.Field("meta.vlan") != 7 {
		t.Fatal("vlan header not detected")
	}
	without := packet.UDPPacket(9, 1, 2, 3, 4, 0)
	run(t, p, without, env)
	if _, ok := without.FieldOK("meta.vlan"); ok {
		t.Fatal("flag set on packet without vlan")
	}
}

func TestInterpALU(t *testing.T) {
	cases := []struct {
		name string
		code func(*Asm) *Asm
		want uint64
	}{
		{"add", func(a *Asm) *Asm { return a.MovImm(0, 7).MovImm(1, 5).Add(0, 1) }, 12},
		{"sub", func(a *Asm) *Asm { return a.MovImm(0, 7).MovImm(1, 5).emit(Instr{Op: OpSub, Rd: 0, Rs: 1}) }, 2},
		{"mul", func(a *Asm) *Asm { return a.MovImm(0, 7).MovImm(1, 5).emit(Instr{Op: OpMul, Rd: 0, Rs: 1}) }, 35},
		{"div", func(a *Asm) *Asm { return a.MovImm(0, 35).MovImm(1, 5).emit(Instr{Op: OpDiv, Rd: 0, Rs: 1}) }, 7},
		{"div0", func(a *Asm) *Asm { return a.MovImm(0, 35).MovImm(1, 0).emit(Instr{Op: OpDiv, Rd: 0, Rs: 1}) }, 0},
		{"mod", func(a *Asm) *Asm { return a.MovImm(0, 37).MovImm(1, 5).Mod(0, 1) }, 2},
		{"mod0", func(a *Asm) *Asm { return a.MovImm(0, 37).MovImm(1, 0).Mod(0, 1) }, 0},
		{"and", func(a *Asm) *Asm { return a.MovImm(0, 0xF0).MovImm(1, 0x3C).emit(Instr{Op: OpAnd, Rd: 0, Rs: 1}) }, 0x30},
		{"or", func(a *Asm) *Asm { return a.MovImm(0, 0xF0).MovImm(1, 0x0C).Or(0, 1) }, 0xFC},
		{"xor", func(a *Asm) *Asm { return a.MovImm(0, 0xFF).MovImm(1, 0x0F).Xor(0, 1) }, 0xF0},
		{"shl", func(a *Asm) *Asm { return a.MovImm(0, 1).MovImm(1, 4).emit(Instr{Op: OpShl, Rd: 0, Rs: 1}) }, 16},
		{"shr", func(a *Asm) *Asm { return a.MovImm(0, 16).MovImm(1, 4).emit(Instr{Op: OpShr, Rd: 0, Rs: 1}) }, 1},
		{"min", func(a *Asm) *Asm { return a.MovImm(0, 9).MovImm(1, 5).Min(0, 1) }, 5},
		{"max", func(a *Asm) *Asm { return a.MovImm(0, 9).MovImm(1, 5).emit(Instr{Op: OpMax, Rd: 0, Rs: 1}) }, 9},
		{"addi", func(a *Asm) *Asm { return a.MovImm(0, 9).AddImm(0, 5) }, 14},
		{"subi", func(a *Asm) *Asm { return a.MovImm(0, 9).SubImm(0, 5) }, 4},
		{"muli", func(a *Asm) *Asm { return a.MovImm(0, 9).emit(Instr{Op: OpMulImm, Rd: 0, Imm: 5}) }, 45},
		{"shli", func(a *Asm) *Asm { return a.MovImm(0, 3).ShlImm(0, 2) }, 12},
		{"shri", func(a *Asm) *Asm { return a.MovImm(0, 12).emit(Instr{Op: OpShrImm, Rd: 0, Imm: 2}) }, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code := tc.code(NewAsm()).StField("meta.out", 0).Ret().MustBuild()
			p, err := NewProgram("alu-" + tc.name).Do(code).Build()
			if err != nil {
				t.Fatal(err)
			}
			pkt := packet.New(1)
			run(t, p, pkt, newTestEnv())
			if got := pkt.Field("meta.out"); got != tc.want {
				t.Fatalf("%s = %d, want %d", tc.name, got, tc.want)
			}
		})
	}
}

func TestInterpJumps(t *testing.T) {
	// if r0 >= 10 goto big; out=1; end. big: out=2
	code := NewAsm().
		LdField(0, "meta.in").
		jump(OpJGeImm, 0, 0, 10, "big").
		MovImm(1, 1).
		jump(OpJmp, 0, 0, 0, "store").
		Label("big").
		MovImm(1, 2).
		Label("store").
		StField("meta.out", 1).
		Ret().
		MustBuild()
	p, err := NewProgram("jump").Do(code).Build()
	if err != nil {
		t.Fatal(err)
	}
	for in, want := range map[uint64]uint64{5: 1, 10: 2, 100: 2} {
		pkt := packet.New(1)
		pkt.SetField("meta.in", in)
		run(t, p, pkt, newTestEnv())
		if got := pkt.Field("meta.out"); got != want {
			t.Fatalf("in=%d: out=%d, want %d", in, got, want)
		}
	}
}

func TestInterpMapOps(t *testing.T) {
	code := NewAsm().
		MovImm(0, 42). // key
		MovImm(1, 7).  // value
		MapStore("m", 0, 1).
		MapHas(2, "m", 0).
		StField("meta.has", 2).
		MapLoad(3, "m", 0).
		StField("meta.val", 3).
		emit(Instr{Op: OpMapDelete, Rs: 0, Sym: "m"}).
		MapHas(4, "m", 0).
		StField("meta.has2", 4).
		Ret().
		MustBuild()
	p, err := NewProgram("maps").HashMap("m", 16, 64).Do(code).Build()
	if err != nil {
		t.Fatal(err)
	}
	pkt := packet.New(1)
	run(t, p, pkt, newTestEnv())
	if pkt.Field("meta.has") != 1 || pkt.Field("meta.val") != 7 || pkt.Field("meta.has2") != 0 {
		t.Fatalf("map ops: has=%d val=%d has2=%d", pkt.Field("meta.has"), pkt.Field("meta.val"), pkt.Field("meta.has2"))
	}
}

func TestInterpCounterAndIntrinsics(t *testing.T) {
	code := NewAsm().
		MovImm(0, 3). // index
		PktLen(1).
		Count("bytes", 0, 1).
		Now(2).
		StField("meta.now", 2).
		FlowHash(3).
		StField("meta.fh", 3).
		Ret().
		MustBuild()
	p, err := NewProgram("intr").Counter("bytes", 8).Do(code).Build()
	if err != nil {
		t.Fatal(err)
	}
	env := newTestEnv()
	env.now = 12345
	pkt := packet.TCPPacket(1, 1, 2, 3, 4, 0, 66)
	run(t, p, pkt, env)
	if env.counters["bytes"][3] != uint64(pkt.Len()) {
		t.Fatalf("counter = %d, want %d", env.counters["bytes"][3], pkt.Len())
	}
	if pkt.Field("meta.now") != 12345 {
		t.Fatalf("now = %d", pkt.Field("meta.now"))
	}
	if pkt.Field("meta.fh") != pkt.FlowKey().Hash() {
		t.Fatal("flowhash mismatch")
	}
}

func TestInterpHeaderOps(t *testing.T) {
	code := NewAsm().
		AddHdr("int").
		MovImm(0, 9).
		StField("int.hopcount", 0).
		emit(Instr{Op: OpRmHdr, Sym: "vlan"}).
		Ret().
		MustBuild()
	p, err := NewProgram("hdrs").Do(code).Build()
	if err != nil {
		t.Fatal(err)
	}
	pkt := packet.UDPPacket(1, 1, 2, 5, 6, 0)
	if err := pkt.TagVLAN(10); err != nil {
		t.Fatal(err)
	}
	run(t, p, pkt, newTestEnv())
	if !pkt.Has("int") || pkt.Field("int.hopcount") != 9 {
		t.Fatal("int header not added")
	}
	if pkt.Has("vlan") {
		t.Fatal("vlan not removed")
	}
}

func TestVerifierRejections(t *testing.T) {
	cases := []struct {
		name  string
		build func() *ProgramBuilder
		frag  string
	}{
		{
			"uninitialized register",
			func() *ProgramBuilder {
				return NewProgram("p").Do([]Instr{{Op: OpAdd, Rd: 0, Rs: 1}})
			},
			"uninitialized",
		},
		{
			"backward jump",
			func() *ProgramBuilder {
				return NewProgram("p").Do([]Instr{
					{Op: OpMovImm, Rd: 0, Imm: 1},
					{Op: OpJmp, Off: -2},
				})
			},
			"backward",
		},
		{
			"jump out of bounds",
			func() *ProgramBuilder {
				return NewProgram("p").Do([]Instr{{Op: OpJmp, Off: 5}})
			},
			"beyond",
		},
		{
			"undeclared map",
			func() *ProgramBuilder {
				return NewProgram("p").Do([]Instr{
					{Op: OpMovImm, Rd: 0, Imm: 1},
					{Op: OpMapLoad, Rd: 1, Rs: 0, Sym: "ghost"},
				})
			},
			"undeclared map",
		},
		{
			"undeclared counter",
			func() *ProgramBuilder {
				return NewProgram("p").Do([]Instr{
					{Op: OpMovImm, Rd: 0, Imm: 1},
					{Op: OpCount, Rs: 0, Rt: 0, Sym: "ghost"},
				})
			},
			"undeclared counter",
		},
		{
			"apply unknown table",
			func() *ProgramBuilder { return NewProgram("p").Apply("ghost") },
			"undeclared table",
		},
		{
			"table with unknown action",
			func() *ProgramBuilder {
				return NewProgram("p").Table(&TableSpec{
					Name: "t", Keys: []TableKey{{Field: "ipv4.dst", Kind: MatchExact}},
					Actions: []string{"ghost"}, Size: 1,
				})
			},
			"undefined action",
		},
		{
			"malformed field",
			func() *ProgramBuilder {
				return NewProgram("p").Do([]Instr{{Op: OpLdField, Rd: 0, Sym: "noheader"}})
			},
			"malformed field",
		},
		{
			"param out of range",
			func() *ProgramBuilder {
				return NewProgram("p").
					Action("a", 1, []Instr{{Op: OpLdParam, Rd: 0, Imm: 5}, {Op: OpRet}})
			},
			"param 5 out of range",
		},
		{
			"unreachable code",
			func() *ProgramBuilder {
				return NewProgram("p").Do([]Instr{{Op: OpRet}, {Op: OpNop}})
			},
			"unreachable",
		},
		{
			"duplicate names",
			func() *ProgramBuilder {
				return NewProgram("p").HashMap("x", 4, 32).Counter("x", 4)
			},
			"already used",
		},
		{
			"zero-size table",
			func() *ProgramBuilder {
				return NewProgram("p").
					Action("a", 0, []Instr{{Op: OpRet}}).
					Table(&TableSpec{Name: "t", Keys: []TableKey{{Field: "ipv4.dst"}}, Actions: []string{"a"}})
			},
			"Size must be positive",
		},
		{
			"default params arity",
			func() *ProgramBuilder {
				return NewProgram("p").
					Action("a", 2, []Instr{{Op: OpRet}}).
					Table(&TableSpec{Name: "t", Keys: []TableKey{{Field: "ipv4.dst"}},
						Actions: []string{"a"}, DefaultAction: "a", Size: 4})
			},
			"needs 2 params",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.build().Build()
			if err == nil {
				t.Fatalf("verifier accepted bad program")
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error %q does not contain %q", err, tc.frag)
			}
		})
	}
}

func TestVerifierAcceptsBranchInit(t *testing.T) {
	// r1 is initialized on both paths before use: must pass.
	code := NewAsm().
		LdField(0, "meta.x").
		JEqImm(0, 0, "zero").
		MovImm(1, 10).
		jump(OpJmp, 0, 0, 0, "use").
		Label("zero").
		MovImm(1, 20).
		Label("use").
		StField("meta.y", 1).
		Ret().
		MustBuild()
	if _, err := NewProgram("ok").Do(code).Build(); err != nil {
		t.Fatalf("branch-init program rejected: %v", err)
	}
}

func TestVerifierRejectsPartialInit(t *testing.T) {
	// r1 initialized on only one path: must fail.
	code := NewAsm().
		LdField(0, "meta.x").
		JEqImm(0, 0, "use").
		MovImm(1, 10).
		Label("use").
		StField("meta.y", 1).
		Ret().
		MustBuild()
	if _, err := NewProgram("bad").Do(code).Build(); err == nil {
		t.Fatal("partial-init program accepted")
	}
}

func TestBoundedExecution(t *testing.T) {
	// Property: for any verified program, executed instructions never
	// exceed WorstCaseInstrs.
	prog := aclProgram(t)
	wc := WorstCaseInstrs(prog)
	env := newTestEnv()
	env.tables["acl"] = NewTableInstance(prog.Table("acl"))
	f := func(src, dst uint32, dport uint16) bool {
		pkt := packet.TCPPacket(1, src, dst, 1, dport, 0, 0)
		res, err := Interp{}.Run(prog, pkt, env)
		return err == nil && res.Instrs <= wc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTableLPM(t *testing.T) {
	spec := &TableSpec{
		Name: "rt",
		Keys: []TableKey{{Field: "ipv4.dst", Kind: MatchLPM, Bits: 32}},
		Size: 16,
	}
	ti := NewTableInstance(spec)
	// Overlapping prefixes: /8 and /24; longer must win.
	if err := ti.Insert(LPMEntry("a8", nil, uint64(packet.IP(10, 0, 0, 0)), 8)); err != nil {
		t.Fatal(err)
	}
	if err := ti.Insert(LPMEntry("a24", nil, uint64(packet.IP(10, 1, 1, 0)), 24)); err != nil {
		t.Fatal(err)
	}
	act, _, hit := ti.Lookup([]uint64{uint64(packet.IP(10, 1, 1, 5))})
	if !hit || act != "a24" {
		t.Fatalf("lpm picked %q (hit=%v), want a24", act, hit)
	}
	act, _, hit = ti.Lookup([]uint64{uint64(packet.IP(10, 2, 0, 1))})
	if !hit || act != "a8" {
		t.Fatalf("lpm picked %q, want a8", act)
	}
	_, _, hit = ti.Lookup([]uint64{uint64(packet.IP(11, 0, 0, 1))})
	if hit {
		t.Fatal("miss expected")
	}
}

func TestTableRangeAndPriority(t *testing.T) {
	spec := &TableSpec{
		Name: "ports",
		Keys: []TableKey{{Field: "tcp.dport", Kind: MatchRange, Bits: 16}},
		Size: 8,
	}
	ti := NewTableInstance(spec)
	ti.Insert(&TableEntry{Priority: 1, Match: []MatchValue{{Value: 0, Hi: 1023}}, Action: "low"})
	ti.Insert(&TableEntry{Priority: 5, Match: []MatchValue{{Value: 80, Hi: 80}}, Action: "web"})
	act, _, _ := ti.Lookup([]uint64{80})
	if act != "web" {
		t.Fatalf("priority broken: got %q", act)
	}
	act, _, _ = ti.Lookup([]uint64{443})
	if act != "low" {
		t.Fatalf("range broken: got %q", act)
	}
	if _, _, hit := ti.Lookup([]uint64{5000}); hit {
		t.Fatal("miss expected")
	}
}

func TestTableCapacityAndDuplicates(t *testing.T) {
	spec := &TableSpec{
		Name: "small",
		Keys: []TableKey{{Field: "ipv4.dst", Kind: MatchExact}},
		Size: 2,
	}
	ti := NewTableInstance(spec)
	if err := ti.Insert(ExactEntry("", nil, 1)); err != nil {
		t.Fatal(err)
	}
	if err := ti.Insert(ExactEntry("", nil, 1)); err == nil {
		t.Fatal("duplicate exact entry accepted")
	}
	if err := ti.Insert(ExactEntry("", nil, 2)); err != nil {
		t.Fatal(err)
	}
	if err := ti.Insert(ExactEntry("", nil, 3)); err == nil {
		t.Fatal("insert beyond capacity accepted")
	}
	if ti.Len() != 2 {
		t.Fatalf("len = %d", ti.Len())
	}
}

func TestTableEntriesSnapshot(t *testing.T) {
	spec := &TableSpec{Name: "t", Keys: []TableKey{{Field: "ipv4.dst", Kind: MatchExact}}, Size: 4}
	ti := NewTableInstance(spec)
	ti.Insert(ExactEntry("", []uint64{1}, 5))
	snap := ti.Entries()
	snap[0].Params[0] = 99
	if got := ti.Entries()[0].Params[0]; got != 1 {
		t.Fatalf("snapshot aliases table storage: %d", got)
	}
}

func TestTableMatchKindsProperty(t *testing.T) {
	// Property: ternary with full mask behaves exactly like exact match.
	specT := &TableSpec{Name: "t1", Keys: []TableKey{{Field: "f.x", Kind: MatchTernary, Bits: 32}}, Size: 1 << 16}
	specE := &TableSpec{Name: "t2", Keys: []TableKey{{Field: "f.x", Kind: MatchExact, Bits: 32}}, Size: 1 << 16}
	tt := NewTableInstance(specT)
	te := NewTableInstance(specE)
	vals := map[uint64]bool{}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		v := uint64(r.Uint32())
		if vals[v] {
			continue
		}
		vals[v] = true
		tt.Insert(&TableEntry{Match: []MatchValue{{Value: v, Mask: ^uint64(0)}}, Action: "hit"})
		te.Insert(ExactEntry("hit", nil, v))
	}
	f := func(v uint32) bool {
		_, _, h1 := tt.Lookup([]uint64{uint64(v)})
		_, _, h2 := te.Lookup([]uint64{uint64(v)})
		return h1 == h2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestAsmLabelErrors(t *testing.T) {
	if _, err := NewAsm().jump(OpJmp, 0, 0, 0, "nowhere").Build(); err == nil {
		t.Fatal("undefined label accepted")
	}
	if _, err := NewAsm().Label("l").emit(Instr{Op: OpNop}).jump(OpJmp, 0, 0, 0, "l").Build(); err == nil {
		t.Fatal("backward label accepted")
	}
	a := NewAsm().Label("x").Label("x")
	if _, err := a.Build(); err == nil {
		t.Fatal("duplicate label accepted")
	}
}

func TestProgramClone(t *testing.T) {
	p := aclProgram(t)
	q := p.Clone()
	q.Tables[0].Size = 9999
	q.Actions["deny"].Body[0].Op = OpNop
	q.Maps[0].MaxEntries = 1
	if p.Tables[0].Size == 9999 || p.Actions["deny"].Body[0].Op == OpNop || p.Maps[0].MaxEntries == 1 {
		t.Fatal("clone shares storage with original")
	}
	if err := Verify(p); err != nil {
		t.Fatalf("original corrupted: %v", err)
	}
}

func TestTableDependencies(t *testing.T) {
	act := []Instr{{Op: OpRet}}
	mk := func(name string) *TableSpec {
		return &TableSpec{Name: name, Keys: []TableKey{{Field: "ipv4.dst", Kind: MatchExact}},
			Actions: []string{"a"}, Size: 4}
	}
	p, err := NewProgram("deps").
		Action("a", 0, act).
		Table(mk("t1")).Table(mk("t2")).Table(mk("t3")).
		Apply("t1").
		If(Cond{Field: "ipv4.ttl", Op: CmpGt, Value: 1},
			[]Stmt{{Apply: "t2"}},
			nil).
		Apply("t3").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	deps := p.TableDependencies()
	want := map[[2]string]bool{
		{"t1", "t2"}: true,
		{"t1", "t3"}: true,
		{"t2", "t3"}: true,
	}
	if len(deps) != len(want) {
		t.Fatalf("deps = %v", deps)
	}
	for _, d := range deps {
		if !want[d] {
			t.Fatalf("unexpected dep %v", d)
		}
	}
	tables := p.AppliedTables()
	if len(tables) != 3 || tables[0] != "t1" {
		t.Fatalf("applied tables = %v", tables)
	}
}

func TestDemandModel(t *testing.T) {
	p := aclProgram(t)
	d := ProgramDemand(p)
	if d.Tables != 1 {
		t.Fatalf("tables = %d", d.Tables)
	}
	if d.TCAMBits == 0 {
		t.Fatal("ternary table should demand TCAM")
	}
	if d.SRAMBits == 0 {
		t.Fatal("map should demand SRAM")
	}
	// Fits/Add/Sub algebra.
	cap := Demand{SRAMBits: 1 << 20, TCAMBits: 1 << 20, ALUs: 1 << 10, Tables: 16, ParserStates: 32}
	if !d.Fits(cap) {
		t.Fatalf("demand %v does not fit big capacity", d)
	}
	if d.Add(cap).Fits(cap) {
		t.Fatal("inflated demand fits")
	}
	if !cap.Sub(d).Add(d).Fits(cap) {
		t.Fatal("sub/add not inverse")
	}
}

func TestDemandFitsProperty(t *testing.T) {
	f := func(a, b uint16, c, d uint8) bool {
		x := Demand{SRAMBits: int(a), TCAMBits: int(b), ALUs: int(c), Tables: int(d)}
		y := x.Add(Demand{SRAMBits: 1})
		return x.Fits(y) && !y.Fits(x) || x.SRAMBits+1 != y.SRAMBits
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCapabilities(t *testing.T) {
	host := Capabilities{PerFlowState: true, GeneralCompute: true, Transport: true}
	asic := Capabilities{TCAM: true, PerFlowState: true}
	ccNeed := Capabilities{Transport: true, GeneralCompute: true}
	aclNeed := Capabilities{TCAM: true}
	if !host.Satisfies(ccNeed) {
		t.Fatal("host should run CC")
	}
	if asic.Satisfies(ccNeed) {
		t.Fatal("asic should not run CC")
	}
	if !asic.Satisfies(aclNeed) {
		t.Fatal("asic should run ACL")
	}
	if host.Satisfies(aclNeed) {
		t.Fatal("host has no TCAM")
	}
}

func TestDisasmAndDump(t *testing.T) {
	p := aclProgram(t)
	dump := Dump(p)
	for _, want := range []string{"program acl", "map flows", "table acl", "action allow", "apply acl"} {
		if !strings.Contains(dump, want) {
			t.Fatalf("dump missing %q:\n%s", want, dump)
		}
	}
	dis := Disasm(p.Actions["allow"].Body)
	if !strings.Contains(dis, "ldp") || !strings.Contains(dis, "fwd") {
		t.Fatalf("disasm: %s", dis)
	}
}

func TestWorstCaseInstrs(t *testing.T) {
	p := aclProgram(t)
	wc := WorstCaseInstrs(p)
	// count block = 5 instrs, widest acl action = 2 (allow).
	if wc != 7 {
		t.Fatalf("worst case = %d, want 7", wc)
	}
}

func TestRuntimeBudgetGuard(t *testing.T) {
	// An unverified program with a pathological self-loop must be cut off
	// by the interpreter's budget, not hang.
	p := &Program{Name: "evil", Actions: map[string]*Action{}}
	p.Pipeline = []Stmt{{Do: []Instr{
		{Op: OpMovImm, Rd: 0, Imm: 0},
		{Op: OpJmp, Off: -2}, // illegal backward jump, unverified
	}}}
	_, err := Interp{}.Run(p, packet.New(1), newTestEnv())
	if err == nil {
		t.Fatal("runaway program terminated without error")
	}
}

func TestVerdictsTerminatePipeline(t *testing.T) {
	first := NewAsm().Drop().MustBuild()
	second := NewAsm().MovImm(0, 1).StField("meta.ran", 0).Ret().MustBuild()
	p, err := NewProgram("term").Do(first).Do(second).Build()
	if err != nil {
		t.Fatal(err)
	}
	pkt := packet.New(1)
	res := run(t, p, pkt, newTestEnv())
	if res.Verdict != packet.VerdictDrop {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	if _, ok := pkt.FieldOK("meta.ran"); ok {
		t.Fatal("pipeline continued past terminal verdict")
	}
}

func TestDatapathClone(t *testing.T) {
	dp := &Datapath{Name: "d", Segments: []*Program{aclProgram(t)}, SLA: SLA{MaxLatencyNs: 100}}
	c := dp.Clone()
	c.Segments[0].Tables[0].Size = 1
	if dp.Segments[0].Tables[0].Size == 1 {
		t.Fatal("datapath clone shares segments")
	}
	if dp.Segment("acl") == nil || dp.Segment("nope") != nil {
		t.Fatal("Segment lookup broken")
	}
}
