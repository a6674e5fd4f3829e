package flexbpf

import (
	"math/rand"
	"reflect"
	"testing"

	"flexnet/internal/packet"
)

// randomInstr draws an arbitrary (possibly invalid) instruction.
func randomInstr(r *rand.Rand) Instr {
	ops := []Op{
		OpNop, OpMovImm, OpMov, OpLdField, OpHasField, OpStField, OpAddHdr,
		OpRmHdr, OpLdParam, OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr,
		OpXor, OpShl, OpShr, OpMin, OpMax, OpAddImm, OpSubImm, OpMulImm,
		OpAndImm, OpOrImm, OpXorImm, OpShlImm, OpShrImm, OpMapLoad, OpMapHas,
		OpMapStore, OpMapDelete, OpHash, OpFlowHash, OpNow, OpRand, OpPktLen,
		OpCount, OpMeterExec, OpJmp, OpJEq, OpJNe, OpJLt, OpJGe, OpJGt, OpJLe,
		OpJEqImm, OpJNeImm, OpJLtImm, OpJGeImm, OpJGtImm, OpJLeImm, OpDrop,
		OpForward, OpPunt, OpRecirc, OpRet,
	}
	syms := []string{"m", "c", "mt", "ipv4.dst", "tcp.flags", "meta.x", "int", "vlan", "ghost", ""}
	return Instr{
		Op:  ops[r.Intn(len(ops))],
		Rd:  Reg(r.Intn(20)), // sometimes out of range
		Rs:  Reg(r.Intn(20)),
		Rt:  Reg(r.Intn(20)),
		Imm: uint64(r.Intn(64)),
		Sym: syms[r.Intn(len(syms))],
		Off: int32(r.Intn(12) - 2), // sometimes backward/overflowing
	}
}

// TestVerifierSoundnessFuzz: any random block the verifier ACCEPTS must
// execute without runtime errors, terminate, and stay within the static
// worst-case instruction bound — the §3.1 "certify bounded execution"
// property, checked adversarially. The same block must also link, and
// the linked program (the only form a device executes) must agree with
// the reference interpreter on verdict, instruction and lookup counts,
// every packet field, and the map/counter/meter state it leaves behind:
// verifier-accepted ⇒ link succeeds ⇒ linked ≡ reference.
func TestVerifierSoundnessFuzz(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	env, envL := newTestEnv(), newTestEnv()
	ctx := NewExecContext()
	accepted := 0
	const trials = 30000
	for trial := 0; trial < trials; trial++ {
		n := 1 + r.Intn(12)
		code := make([]Instr, n)
		for i := range code {
			code[i] = randomInstr(r)
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
		pkt := packet.TCPPacket(uint64(trial), 1, 2, 3, 4, 0, 10)
		res, err := Interp{}.Run(p, pkt, env)
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
	if accepted < 200 {
		t.Fatalf("fuzz accepted only %d/%d blocks — generator too hostile to exercise the interpreter", accepted, trials)
	}
	t.Logf("fuzz: %d/%d random blocks verified, linked, and ran identically on both engines", accepted, trials)
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
