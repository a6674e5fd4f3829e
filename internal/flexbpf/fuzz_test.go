package flexbpf

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"flexnet/internal/packet"
)

// randomInstr draws an arbitrary (possibly invalid) instruction. The
// opcode comes from the whole enum plus opMax and lopApply, which the
// verifier must reject as source instructions.
func randomInstr(r *rand.Rand) Instr {
	syms := []string{"m", "c", "mt", "ipv4.dst", "tcp.flags", "meta.x", "int", "vlan", "ghost", ""}
	return Instr{
		Op:  Op(r.Intn(int(opMax) + 2)),
		Rd:  Reg(r.Intn(20)), // sometimes out of range
		Rs:  Reg(r.Intn(20)),
		Rt:  Reg(r.Intn(20)),
		Imm: uint64(r.Intn(64)),
		Sym: syms[r.Intn(len(syms))],
		Off: int32(r.Intn(12) - 2), // sometimes backward/overflowing
	}
}

// wellFormedBlock draws a block the verifier should accept: a prologue
// of movi writes, then n instructions whose registers are in range and
// read only what every path to them has written, whose symbols name the
// fuzz program's declarations, and whose jumps go forward and stay inside
// the block. An instruction with no fallthrough (a verdict or jmp) comes
// only last or where an earlier jump lands on its successor, so no
// instruction is unreachable. ldp appears only in an action body
// (params > 0) and reads one of its params.
func wellFormedBlock(r *rand.Rand, n, params int) []Instr {
	fields := []string{"ipv4.dst", "tcp.flags", "tcp.dport", "meta.x"}
	syms := map[symKind][]string{symField: fields, symHeader: {"int", "vlan"},
		symMap: {"m"}, symCounter: {"c"}, symMeter: {"mt"}}
	pro := 1 + r.Intn(4)
	code := make([]Instr, pro+n)
	// initAt and reachable mirror the verifier's dataflow, filled in as
	// each jump is drawn (jumps only go forward).
	initAt := make([]uint32, len(code)+1)
	reachable := make([]bool, len(code)+1)
	reachable[0] = true
	join := func(pc int, set uint32) {
		if !reachable[pc] {
			reachable[pc], initAt[pc] = true, set
		} else {
			initAt[pc] &= set
		}
	}
	pick := func(set uint32) Reg {
		for {
			if rg := Reg(r.Intn(NumRegs)); set&(1<<rg) != 0 {
				return rg
			}
		}
	}
	for pc := range code {
		set := initAt[pc]
		ins := Instr{Op: OpMovImm, Rd: Reg(r.Intn(NumRegs)), Imm: uint64(r.Intn(1 << 16))}
		if pc >= pro {
			for {
				ins.Op = Op(r.Intn(int(opMax)))
				cls := opClasses[ins.Op]
				last := pc == len(code)-1
				if ins.Op == OpLdParam && params == 0 || (cls.terminal || ins.Op == OpJmp) && !last && !reachable[pc+1] {
					continue
				}
				break
			}
			cls := opClasses[ins.Op]
			ins.Imm = uint64(r.Intn(64))
			if ins.Op == OpLdParam {
				ins.Imm = uint64(r.Intn(params))
			}
			if cls.readsRs {
				ins.Rs = pick(set)
			}
			if cls.readsRt {
				ins.Rt = pick(set)
			}
			if cls.readsRd {
				ins.Rd = pick(set)
			}
			if names := syms[cls.sym]; names != nil {
				ins.Sym = names[r.Intn(len(names))]
			}
			if cls.jump {
				ins.Off = int32(r.Intn(len(code) - pc))
			}
		}
		cls := opClasses[ins.Op]
		if cls.writesRd {
			set |= 1 << ins.Rd
		}
		switch {
		case cls.jump:
			join(pc+1+int(ins.Off), set)
			if ins.Op != OpJmp {
				join(pc+1, set)
			}
		case !cls.terminal:
			join(pc+1, set)
		}
		code[pc] = ins
	}
	return code
}

// fuzzDecls gives a generated program the objects wellFormedBlock's
// symbols name, plus the counter "br" the branch markers count into.
func fuzzDecls(p *Program) *Program {
	p.Name = "fuzz"
	p.Actions = map[string]*Action{}
	p.Maps = []*MapSpec{{Name: "m", Kind: MapHash, MaxEntries: 8, ValueBits: 32}}
	p.Counters = []*CounterSpec{{Name: "c", Size: 4}, {Name: "br", Size: 2}}
	p.Meters = []*MeterSpec{{Name: "mt", Size: 2, CIR: 100, PIR: 200, CBS: 50, PBS: 100}}
	return p
}

// fuzzSrcs is the range of ipv4.src values a whole-program trial's
// packets carry and its table "t" is keyed on, so lookups both hit and
// miss.
const fuzzSrcs = 8

// branchMark is a Do block that adds one to counter "br" at index side
// (0 then, 1 else), so the state shows which way each If went.
func branchMark(side uint64) Stmt {
	return SDo([]Instr{
		{Op: OpMovImm, Rd: 0, Imm: side},
		{Op: OpMovImm, Rd: 1, Imm: 1},
		{Op: OpCount, Rs: 0, Rt: 1, Sym: "br"},
	})
}

// fuzzParams draws n action parameters.
func fuzzParams(r *rand.Rand, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(r.Intn(1 << 16))
	}
	return out
}

// fuzzStmts draws 1–3 pipeline statements: applies of table "t",
// well-formed Do blocks, and (while depth > 0) If/Else over ==
// and >= whose branches open with a branchMark.
func fuzzStmts(r *rand.Rand, depth int) []Stmt {
	fields := []string{"ipv4.src", "tcp.dport", "tcp.flags", "meta.x"}
	out := make([]Stmt, 1+r.Intn(3))
	for i := range out {
		switch k := r.Intn(3); {
		case k == 0:
			out[i] = Stmt{Apply: "t"}
		case k == 1 || depth == 0:
			out[i] = SDo(wellFormedBlock(r, 1+r.Intn(8), 0))
		default:
			c := Cond{Field: fields[r.Intn(len(fields))], Op: []CmpOp{CmpEq, CmpGe}[r.Intn(2)], Value: uint64(r.Intn(fuzzSrcs))}
			st := &IfStmt{Cond: c, Then: append([]Stmt{branchMark(0)}, fuzzStmts(r, depth-1)...)}
			if r.Intn(3) > 0 {
				st.Else = append([]Stmt{branchMark(1)}, fuzzStmts(r, depth-1)...)
			}
			out[i] = Stmt{If: st}
		}
	}
	return out
}

// guardField is the field a whole-program trial's install filter reads:
// no other statement reads it, and each packet carries 0 or 1 there.
const guardField = "meta.tenant"

// fuzzProgram draws a whole program, its table entries and the packets
// to run through it: one exact-match table "t" on ipv4.src whose 1–3
// actions have well-formed bodies that read their params with ldp, an
// optional default action, entries for about half of the fuzzSrcs keys,
// a pipeline from fuzzStmts, and four TCP packets. A quarter of the
// programs then run behind an install filter on guardField, lowered as
// a device lowers one (Guard). Those draws come last, so an input that
// decoded to a program before still decodes to the same one.
func fuzzProgram(r *rand.Rand) (*Program, map[string][]*TableEntry, []*packet.Packet) {
	p := fuzzDecls(&Program{})
	t := &TableSpec{Name: "t", Keys: []TableKey{{Field: "ipv4.src", Kind: MatchExact, Bits: 32}}, Size: fuzzSrcs}
	for i, n := 0, 1+r.Intn(3); i < n; i++ {
		name := fmt.Sprintf("a%d", i)
		np := r.Intn(3)
		p.Actions[name] = &Action{Name: name, NumParams: np, Body: wellFormedBlock(r, 1+r.Intn(8), np)}
		t.Actions = append(t.Actions, name)
	}
	if r.Intn(2) == 0 {
		t.DefaultAction = t.Actions[r.Intn(len(t.Actions))]
		t.DefaultParams = fuzzParams(r, p.Actions[t.DefaultAction].NumParams)
	}
	p.Tables = []*TableSpec{t}
	var entries []*TableEntry
	for src := uint64(0); src < fuzzSrcs; src++ {
		if r.Intn(2) == 0 {
			a := t.Actions[r.Intn(len(t.Actions))]
			entries = append(entries, ExactEntry(a, fuzzParams(r, p.Actions[a].NumParams), src))
		}
	}
	p.Pipeline = fuzzStmts(r, 2)
	pkts := make([]*packet.Packet, 4)
	for i := range pkts {
		pkts[i] = packet.TCPPacket(uint64(i), uint32(r.Intn(fuzzSrcs)), 2, 3, uint16(r.Intn(fuzzSrcs)), uint64(r.Intn(4)), 10)
	}
	if r.Intn(4) == 0 {
		p = Guard(p, Cond{Field: guardField, Op: []CmpOp{CmpEq, CmpGe}[r.Intn(2)], Value: uint64(r.Intn(2))})
	}
	for _, pkt := range pkts {
		pkt.SetField(guardField, uint64(r.Intn(2)))
	}
	return p, map[string][]*TableEntry{"t": entries}, pkts
}

// guardOf returns the install filter fuzzProgram put in front of p, or
// nil.
func guardOf(p *Program) *Cond {
	if s := p.Pipeline[0]; s.If != nil && s.If.Cond.Field == guardField {
		return &s.If.Cond
	}
	return nil
}

// listing is Dump plus the instructions of every pipeline Do block.
func listing(p *Program) string {
	var b strings.Builder
	b.WriteString(Dump(p))
	walkStmts(p.Pipeline, func(s *Stmt) {
		if s.Do != nil {
			b.WriteString("  do:\n" + Disasm(s.Do))
		}
	})
	return b.String()
}

// seededFuzzKeys is how many keys of the fuzz program's map "m" hold a
// value before each program runs.
const seededFuzzKeys = 64

// seededFuzzEnv returns a test env whose map "m" holds keys
// 0..seededFuzzKeys-1.
func seededFuzzEnv() *testEnv {
	e := newTestEnv()
	e.maps["m"] = map[uint64]uint64{}
	for k := uint64(0); k < seededFuzzKeys; k++ {
		e.maps["m"][k] = k*2654435761 + 1
	}
	return e
}

// refEnv is the reference side's env: it counts the map loads that
// find their key and the table lookups that hit and miss.
type refEnv struct {
	*testEnv
	loadHits, tableHits, tableMisses int
}

func (e *refEnv) MapLoad(m string, k uint64) (uint64, bool) {
	v, ok := e.testEnv.MapLoad(m, k)
	if ok {
		e.loadHits++
	}
	return v, ok
}

func (e *refEnv) TableLookup(t string, keys []uint64) (string, []uint64, bool) {
	a, params, ok := e.testEnv.TableLookup(t, keys)
	if ok {
		e.tableHits++
	} else {
		e.tableMisses++
	}
	return a, params, ok
}

// linkedVsReference runs pkts through the reference interpreter and
// through p's linked form, each against its own seeded env whose tables
// hold entries, and fails unless, after every packet, both agree on
// verdict, instruction and lookup counts, every packet field and the
// map/counter/meter state, and neither errs or exceeds
// WorstCaseInstrs. p must be verified: verifier-accepted ⇒ link
// succeeds ⇒ linked ≡ reference. It returns the reference env, whose
// counts say what the run exercised.
func linkedVsReference(t testing.TB, p *Program, entries map[string][]*TableEntry, pkts []*packet.Packet) *refEnv {
	t.Helper()
	ref, envL := &refEnv{testEnv: seededFuzzEnv()}, seededFuzzEnv()
	for _, spec := range p.Tables {
		ref.tables[spec.Name] = NewTableInstance(spec)
		envL.tables[spec.Name] = NewTableInstance(spec)
	}
	lp, err := Link(p, func(name string) *TableInstance { return envL.tables[name] })
	if err != nil {
		t.Fatalf("verified program does not link: %v\n%s", err, listing(p))
	}
	for name, es := range entries {
		for _, e := range es {
			for _, env := range []*testEnv{ref.testEnv, envL} {
				ec := *e
				if err := env.tables[name].Insert(&ec); err != nil {
					t.Fatalf("insert into %s: %v", name, err)
				}
			}
		}
	}
	bound := WorstCaseInstrs(p)
	ctx := NewExecContext()
	for i, proto := range pkts {
		pkt, pktL := proto.Clone(), proto.Clone()
		res, err := Interp{}.Run(p, pkt, ref)
		if err != nil {
			t.Fatalf("pkt %d: verified program failed at runtime: %v\n%s", i, err, listing(p))
		}
		if res.Instrs > bound {
			t.Fatalf("pkt %d: executed %d instrs, worst case %d (loop?)\n%s", i, res.Instrs, bound, listing(p))
		}
		resL, err := lp.Run(pktL, &linkedTestEnv{envL, lp}, ctx)
		if err != nil {
			t.Fatalf("pkt %d: linked program failed at runtime: %v\n%s", i, err, listing(p))
		}
		if resL != res {
			t.Fatalf("pkt %d: result divergence: reference=%+v linked=%+v\n%s", i, res, resL, listing(p))
		}
		if pkt.String() != pktL.String() || pkt.EgressPort != pktL.EgressPort {
			t.Fatalf("pkt %d: packet divergence:\nreference: %s egress=%d\nlinked:    %s egress=%d\n%s",
				i, pkt, pkt.EgressPort, pktL, pktL.EgressPort, listing(p))
		}
		if !reflect.DeepEqual(ref.maps, envL.maps) || !reflect.DeepEqual(ref.counters, envL.counters) ||
			!reflect.DeepEqual(ref.meters, envL.meters) {
			t.Fatalf("pkt %d: state divergence after:\n%s", i, listing(p))
		}
	}
	return ref
}

// TestVerifierSoundnessFuzz: any random program the verifier ACCEPTS
// must execute without runtime errors, terminate, and stay within the
// static worst-case instruction bound — the §3.1 "certify bounded
// execution" property, checked adversarially. The same program must
// also link, and the linked program (the only form a device executes)
// must agree with the reference interpreter (linkedVsReference). The
// block trials put one block in a pipeline Do: even ones draw hostile
// blocks (randomInstr), which the verifier mostly rejects; odd ones draw
// well-formed ones (wellFormedBlock), so the differential runs on
// thousands of blocks and every opcode but ldp. The whole-program
// trials then draw from fuzzProgram, which adds tables, actions that
// read their params, If/Else over both operators and install filters;
// the test fails unless ldp, table hits and misses, both sides of an If,
// and a filter that admits and one that refuses are exercised.
func TestVerifierSoundnessFuzz(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	accepted, seededHits := 0, 0
	var perOp [opMax]int
	count := func(code []Instr) {
		for _, ins := range code {
			perOp[ins.Op]++
		}
	}
	const trials = 30000
	for trial := 0; trial < trials; trial++ {
		n := 1 + r.Intn(12)
		var code []Instr
		if trial%2 == 0 {
			code = make([]Instr, n)
			for i := range code {
				code[i] = randomInstr(r)
			}
		} else {
			code = wellFormedBlock(r, n, 0)
		}
		p := fuzzDecls(&Program{Pipeline: []Stmt{SDo(code)}})
		if err := Verify(p); err != nil {
			continue
		}
		accepted++
		count(code)
		// Fresh state per block keeps the state comparison O(block);
		// both engines start from the same seeded map, so loads also
		// hit entries the block did not store itself.
		ref := linkedVsReference(t, p, nil, []*packet.Packet{packet.TCPPacket(uint64(trial), 1, 2, 3, 4, 0, 10)})
		seededHits += ref.loadHits
	}
	if accepted < 6000 {
		t.Fatalf("fuzz accepted only %d/%d blocks — too few to exercise the interpreters", accepted, trials)
	}
	t.Logf("fuzz: %d/%d random blocks verified, linked, and ran identically on both engines", accepted, trials)
	if seededHits < 1000 {
		t.Fatalf("only %d map loads found their key — the hit path is barely exercised", seededHits)
	}
	t.Logf("map loads that found their key: %d", seededHits)

	const programs = 2000
	var hits, misses, thens, elses, admitted, refused int
	for trial := 0; trial < programs; trial++ {
		p, entries, pkts := fuzzProgram(r)
		if err := Verify(p); err != nil {
			t.Fatalf("generated program rejected: %v\n%s", err, listing(p))
		}
		if c := guardOf(p); c != nil {
			for _, pkt := range pkts {
				if evalCond(c, pkt) {
					admitted++
				} else {
					refused++
				}
			}
		}
		for _, a := range p.Actions {
			count(a.Body)
		}
		walkStmts(p.Pipeline, func(s *Stmt) { count(s.Do) })
		ref := linkedVsReference(t, p, entries, pkts)
		hits, misses = hits+ref.tableHits, misses+ref.tableMisses
		thens, elses = thens+int(ref.counters["br"][0]), elses+int(ref.counters["br"][1])
	}
	t.Logf("whole programs: %d verified, linked, and ran identically; table hits=%d misses=%d; if branches then=%d else=%d; filtered packets admitted=%d refused=%d",
		programs, hits, misses, thens, elses, admitted, refused)
	var b strings.Builder
	for op, c := range perOp {
		fmt.Fprintf(&b, " %s=%d", OpName(Op(op)), c)
	}
	t.Logf("accepted instructions per opcode:%s", b.String())
	if perOp[OpLdParam] == 0 || hits == 0 || misses == 0 || thens == 0 || elses == 0 || admitted == 0 || refused == 0 {
		t.Fatalf("the whole-program trials left a path unexercised: ldp=%d hits=%d misses=%d then=%d else=%d admitted=%d refused=%d",
			perOp[OpLdParam], hits, misses, thens, elses, admitted, refused)
	}
}

// byteSource is a rand.Source that decodes a fuzz input: while input
// remains, each draw is the next byte (so Intn(n) yields byte%n), then a
// splitmix64 stream seeded by an FNV-1a hash of the input takes over,
// so every input decodes to a finite program.
type byteSource struct {
	data  []byte
	state uint64
}

func newByteSource(data []byte) *byteSource {
	h := fnv.New64a()
	h.Write(data)
	return &byteSource{data: data, state: h.Sum64()}
}

func (s *byteSource) Int63() int64 {
	if len(s.data) > 0 {
		b := s.data[0]
		s.data = s.data[1:]
		return int64(b) << 32 // Rand.Int31 is Int63 >> 32
	}
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

func (s *byteSource) Seed(int64) {}

// FuzzLinkedVsReference decodes its input (byteSource) into fuzzProgram's
// whole program, entries and packets, and holds the linked program to
// the reference interpreter on them (linkedVsReference).
func FuzzLinkedVsReference(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, entries, pkts := fuzzProgram(rand.New(newByteSource(data)))
		if err := Verify(p); err != nil {
			t.Fatalf("generated program rejected: %v\n%s", err, listing(p))
		}
		linkedVsReference(t, p, entries, pkts)
	})
}

// TestVerifierDeterministicFuzz: Verify is a pure function — accepting
// or rejecting must not depend on call order or prior runs.
func TestVerifierDeterministicFuzz(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(8)
		code := make([]Instr, n)
		for i := range code {
			code[i] = randomInstr(r)
		}
		p := &Program{
			Name:     "fuzz",
			Actions:  map[string]*Action{},
			Maps:     []*MapSpec{{Name: "m", Kind: MapHash, MaxEntries: 8, ValueBits: 32}},
			Pipeline: []Stmt{{Do: code}},
		}
		e1 := Verify(p)
		e2 := Verify(p)
		if (e1 == nil) != (e2 == nil) {
			t.Fatalf("verifier nondeterministic on:\n%s", Disasm(code))
		}
	}
}
