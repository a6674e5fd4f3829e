package flexbpf

import (
	"fmt"
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
// instruction is unreachable. ldp is left out: a pipeline block has no
// action parameters.
func wellFormedBlock(r *rand.Rand, n int) []Instr {
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
				if ins.Op == OpLdParam || (cls.terminal || ins.Op == OpJmp) && !last && !reachable[pc+1] {
					continue
				}
				break
			}
			cls := opClasses[ins.Op]
			ins.Imm = uint64(r.Intn(64))
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

// seededFuzzKeys is how many keys of the fuzz program's map "m" hold a
// value before each block runs.
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

// loadHitEnv counts the map loads that find their key.
type loadHitEnv struct {
	*testEnv
	hits int
}

func (e *loadHitEnv) MapLoad(m string, k uint64) (uint64, bool) {
	v, ok := e.testEnv.MapLoad(m, k)
	if ok {
		e.hits++
	}
	return v, ok
}

// TestVerifierSoundnessFuzz: any random block the verifier ACCEPTS must
// execute without runtime errors, terminate, and stay within the static
// worst-case instruction bound — the §3.1 "certify bounded execution"
// property, checked adversarially. The same block must also link, and
// the linked program (the only form a device executes) must agree with
// the reference interpreter on verdict, instruction and lookup counts,
// every packet field, and the map/counter/meter state it leaves behind:
// verifier-accepted ⇒ link succeeds ⇒ linked ≡ reference. Even trials
// draw hostile blocks (randomInstr), which the verifier mostly rejects;
// odd trials draw well-formed ones (wellFormedBlock), so the differential
// runs on thousands of blocks and every opcode but ldp.
func TestVerifierSoundnessFuzz(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	ctx := NewExecContext()
	accepted, seededHits := 0, 0
	var perOp [opMax]int
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
			code = wellFormedBlock(r, n)
		}
		p := &Program{
			Name:    "fuzz",
			Actions: map[string]*Action{},
			Maps:    []*MapSpec{{Name: "m", Kind: MapHash, MaxEntries: 8, ValueBits: 32}},
			Counters: []*CounterSpec{
				{Name: "c", Size: 4},
			},
			Meters:   []*MeterSpec{{Name: "mt", Size: 2, CIR: 100, PIR: 200, CBS: 50, PBS: 100}},
			Pipeline: []Stmt{{Do: code}},
		}
		if err := Verify(p); err != nil {
			continue
		}
		accepted++
		for _, ins := range code {
			perOp[ins.Op]++
		}
		// Fresh state per block keeps the state comparison O(block);
		// both engines start from the same seeded map, so loads also
		// hit entries the block did not store itself.
		env, envL := seededFuzzEnv(), seededFuzzEnv()
		ref := &loadHitEnv{testEnv: env}
		pkt := packet.TCPPacket(uint64(trial), 1, 2, 3, 4, 0, 10)
		res, err := Interp{}.Run(p, pkt, ref)
		seededHits += ref.hits
		if err != nil {
			t.Fatalf("verified block failed at runtime: %v\n%s", err, Disasm(code))
		}
		if res.Instrs > len(code) {
			t.Fatalf("executed %d instrs from a %d-instr block (loop?)\n%s", res.Instrs, len(code), Disasm(code))
		}

		lp, err := Link(p, func(string) *TableInstance { return nil })
		if err != nil {
			t.Fatalf("verified block does not link: %v\n%s", err, Disasm(code))
		}
		pktL := packet.TCPPacket(uint64(trial), 1, 2, 3, 4, 0, 10)
		resL, err := lp.Run(pktL, &linkedTestEnv{envL, lp}, ctx)
		if err != nil {
			t.Fatalf("linked block failed at runtime: %v\n%s", err, Disasm(code))
		}
		if resL != res {
			t.Fatalf("result divergence: reference=%+v linked=%+v\n%s", res, resL, Disasm(code))
		}
		if pkt.String() != pktL.String() || pkt.EgressPort != pktL.EgressPort {
			t.Fatalf("packet divergence:\nreference: %s egress=%d\nlinked:    %s egress=%d\n%s",
				pkt, pkt.EgressPort, pktL, pktL.EgressPort, Disasm(code))
		}
		if !reflect.DeepEqual(env.maps, envL.maps) || !reflect.DeepEqual(env.counters, envL.counters) ||
			!reflect.DeepEqual(env.meters, envL.meters) {
			t.Fatalf("state divergence after:\n%s", Disasm(code))
		}
	}
	if accepted < 6000 {
		t.Fatalf("fuzz accepted only %d/%d blocks — too few to exercise the interpreters", accepted, trials)
	}
	t.Logf("fuzz: %d/%d random blocks verified, linked, and ran identically on both engines", accepted, trials)
	if seededHits < 1000 {
		t.Fatalf("only %d map loads found their key — the hit path is barely exercised", seededHits)
	}
	t.Logf("map loads that found their key: %d", seededHits)
	var b strings.Builder
	for op, c := range perOp {
		fmt.Fprintf(&b, " %s=%d", OpName(Op(op)), c)
	}
	t.Logf("accepted instructions per opcode:%s", b.String())
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
