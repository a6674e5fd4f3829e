package flexbpf

import (
	"fmt"

	"flexnet/internal/packet"
)

// Env is the name-keyed execution environment of the reference
// interpreter (Interp): access to the program's stateful objects and to
// device services. Devices run linked programs against a LinkedEnv
// instead; only tests implement Env.
type Env interface {
	// MapLoad returns the value at key in the named map.
	MapLoad(mapName string, key uint64) (uint64, bool)
	// MapStore writes key→val. It may fail when a bounded map is full.
	MapStore(mapName string, key, val uint64) error
	// CounterAdd adds delta to counter[idx].
	CounterAdd(counter string, idx, delta uint64)
	// MeterExec charges bytes to meter[idx] and returns the color
	// (0 green, 1 yellow, 2 red).
	MeterExec(meter string, idx, bytes uint64) uint64
	// TableLookup resolves a table application.
	TableLookup(table string, keys []uint64) (action string, params []uint64, hit bool)
	// Now returns current time in nanoseconds of simulation time.
	Now() uint64
}

// ExecResult summarizes one packet's trip through a program.
type ExecResult struct {
	Verdict packet.Verdict
	// Instrs is the number of instructions executed.
	Instrs int
	// Lookups is the number of table lookups performed.
	Lookups int
}

// ErrVerifyFirst is wrapped by execution errors caused by conditions the
// verifier would have rejected; seeing it at runtime means an unverified
// program was installed.
type execError struct {
	prog string
	pc   int
	msg  string
}

func (e *execError) Error() string {
	return fmt.Sprintf("flexbpf: program %s pc=%d: %s", e.prog, e.pc, e.msg)
}

// Interp is the reference interpreter: it walks the source statement
// tree directly and defines the semantics LinkedProgram.Run must
// reproduce (verdict, instruction and lookup counts, packet and state
// effects). No device executes it — installation links every program
// (DESIGN.md §7) — it exists as the oracle the tests compare linked
// execution against. It is stateless; all mutable state lives in the
// Env, so one Interp may be shared.
type Interp struct{}

// Run executes prog over pkt in env and returns the result. Programs are
// expected to be verified. Run still stops a packet at PacketBudget
// counted instructions, which the linked executor does not: a verifier
// that admits an over-budget program shows as an Interp error in the
// linked ≡ reference differential.
func (in Interp) Run(prog *Program, pkt *packet.Packet, env Env) (ExecResult, error) {
	res := ExecResult{Verdict: packet.VerdictContinue}
	err := in.runStmts(prog, prog.Pipeline, pkt, env, &res)
	return res, err
}

func (in Interp) runStmts(prog *Program, stmts []Stmt, pkt *packet.Packet, env Env, res *ExecResult) error {
	for i := range stmts {
		s := &stmts[i]
		switch {
		case s.Apply != "":
			if err := in.applyTable(prog, s.Apply, pkt, env, res); err != nil {
				return err
			}
		case s.If != nil:
			branch := s.If.Else
			if evalCond(&s.If.Cond, pkt) {
				branch = s.If.Then
			}
			if err := in.runStmts(prog, branch, pkt, env, res); err != nil {
				return err
			}
		case s.Do != nil:
			if err := in.runBlock(prog, s.Do, nil, pkt, env, res); err != nil {
				return err
			}
		}
		if res.Verdict != packet.VerdictContinue {
			return nil
		}
	}
	return nil
}

func evalCond(c *Cond, pkt *packet.Packet) bool {
	lhs := pkt.Field(c.Field)
	switch c.Op {
	case CmpEq:
		return lhs == c.Value
	case CmpGe:
		return lhs >= c.Value
	}
	return false
}

func (in Interp) applyTable(prog *Program, name string, pkt *packet.Packet, env Env, res *ExecResult) error {
	spec := prog.Table(name)
	if spec == nil {
		return &execError{prog.Name, -1, fmt.Sprintf("apply of unknown table %q", name)}
	}
	keys := make([]uint64, len(spec.Keys))
	for i, k := range spec.Keys {
		keys[i] = pkt.Field(k.Field)
	}
	res.Lookups++
	actName, params, _ := env.TableLookup(name, keys)
	if actName == "" {
		return nil
	}
	act, ok := prog.Actions[actName]
	if !ok {
		return &execError{prog.Name, -1, fmt.Sprintf("table %q selected unknown action %q", name, actName)}
	}
	return in.runBlock(prog, act.Body, params, pkt, env, res)
}

// runBlock executes one instruction block. params are action data
// (nil for inline Do blocks).
func (in Interp) runBlock(prog *Program, code []Instr, params []uint64, pkt *packet.Packet, env Env, res *ExecResult) error {
	var regs [NumRegs]uint64
	pc := 0
	for pc < len(code) {
		if res.Instrs >= PacketBudget {
			return &execError{prog.Name, pc, "instruction budget exhausted (unverified program?)"}
		}
		ins := &code[pc]
		res.Instrs++
		pc++
		switch ins.Op {
		case OpMovImm:
			regs[ins.Rd] = ins.Imm
		case OpMov:
			regs[ins.Rd] = regs[ins.Rs]
		case OpLdField:
			regs[ins.Rd] = pkt.Field(ins.Sym)
		case OpHasField:
			if _, ok := pkt.FieldOK(ins.Sym); ok {
				regs[ins.Rd] = 1
			} else {
				regs[ins.Rd] = 0
			}
		case OpStField:
			pkt.SetField(ins.Sym, regs[ins.Rs])
		case OpAddHdr:
			if err := pkt.AddHeader(ins.Sym); err != nil {
				return &execError{prog.Name, pc - 1, err.Error()}
			}
		case OpLdParam:
			if int(ins.Imm) < len(params) {
				regs[ins.Rd] = params[ins.Imm]
			} else {
				regs[ins.Rd] = 0
			}
		case OpAdd:
			regs[ins.Rd] += regs[ins.Rs]
		case OpMod:
			if regs[ins.Rs] == 0 {
				regs[ins.Rd] = 0
			} else {
				regs[ins.Rd] %= regs[ins.Rs]
			}
		case OpOr:
			regs[ins.Rd] |= regs[ins.Rs]
		case OpXor:
			regs[ins.Rd] ^= regs[ins.Rs]
		case OpMin:
			if regs[ins.Rs] < regs[ins.Rd] {
				regs[ins.Rd] = regs[ins.Rs]
			}
		case OpAddImm:
			regs[ins.Rd] += ins.Imm
		case OpSubImm:
			regs[ins.Rd] -= ins.Imm
		case OpAndImm:
			regs[ins.Rd] &= ins.Imm
		case OpXorImm:
			regs[ins.Rd] ^= ins.Imm
		case OpShlImm:
			regs[ins.Rd] <<= ins.Imm & 63
		case OpMapLoad:
			v, _ := env.MapLoad(ins.Sym, regs[ins.Rs])
			regs[ins.Rd] = v
		case OpMapHas:
			if _, ok := env.MapLoad(ins.Sym, regs[ins.Rs]); ok {
				regs[ins.Rd] = 1
			} else {
				regs[ins.Rd] = 0
			}
		case OpMapStore:
			// Store failures (map full) are silent at the data plane,
			// matching hardware insert-miss semantics; programs that care
			// use OpMapHas to verify.
			_ = env.MapStore(ins.Sym, regs[ins.Rs], regs[ins.Rt])
		case OpHash:
			regs[ins.Rd] = fnv64(regs[ins.Rs])
		case OpFlowHash:
			regs[ins.Rd] = pkt.FlowKey().Hash()
		case OpNow:
			regs[ins.Rd] = env.Now()
		case OpPktLen:
			regs[ins.Rd] = uint64(pkt.Len())
		case OpCount:
			env.CounterAdd(ins.Sym, regs[ins.Rs], regs[ins.Rt])
		case OpMeterExec:
			regs[ins.Rd] = env.MeterExec(ins.Sym, regs[ins.Rs], regs[ins.Rt])
		case OpJmp:
			pc += int(ins.Off)
		case OpJEqImm, OpJLtImm, OpJGtImm, OpJLeImm:
			if cmpImm(ins.Op, regs[ins.Rs], ins.Imm) {
				pc += int(ins.Off)
			}
		case OpDrop:
			res.Verdict = packet.VerdictDrop
			return nil
		case OpForward:
			pkt.EgressPort = int(regs[ins.Rs])
			res.Verdict = packet.VerdictForward
			return nil
		case OpPunt:
			res.Verdict = packet.VerdictToController
			return nil
		case OpRet:
			return nil
		default:
			return &execError{prog.Name, pc - 1, fmt.Sprintf("illegal opcode %d", ins.Op)}
		}
		if pc < 0 || pc > len(code) {
			return &execError{prog.Name, pc, "jump out of bounds"}
		}
	}
	return nil
}

func cmpImm(op Op, a, b uint64) bool {
	switch op {
	case OpJEqImm:
		return a == b
	case OpJLtImm:
		return a < b
	case OpJGtImm:
		return a > b
	case OpJLeImm:
		return a <= b
	}
	return false
}

func fnv64(v uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime
		v >>= 8
	}
	return h
}
