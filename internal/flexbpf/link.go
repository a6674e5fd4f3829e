package flexbpf

import (
	"fmt"
	"sort"

	"flexnet/internal/packet"
)

// This file implements the install-time linker. Installing a program on a
// device compiles it once into a flattened, symbol-resolved executable
// form so the per-packet path never chases strings:
//
//   - field names are interned to dense packet.FieldID indexes and the
//     PHV is addressed by index;
//   - the Apply/If/Do statement tree is lowered to one linear instruction
//     stream with synthetic control opcodes;
//   - map/counter/meter references are resolved to slot indexes into the
//     environment's object arrays, and table applies to direct
//     *TableInstance pointers;
//   - table entries carry a pre-resolved action index, so a hit jumps
//     straight to the lowered action body.
//
// Execution counts instructions and lookups exactly as the tree
// interpreter does — the simulator's latency model feeds on those counts,
// and experiment output must stay byte-identical — so the synthetic
// opcodes below cost zero instructions (their tree equivalents were
// statement-tree walks, not instructions), while every source instruction
// keeps its cost of one.

// Synthetic linked opcodes, allocated above the source opcode space. They
// never appear in source programs and are rejected by the verifier and
// the tree interpreter.
const (
	// lopApply applies lp.tables[Imm]: gather keys, look up, run the
	// resolved action body.
	lopApply Op = opMax + 1 + iota
	// lopBr evaluates lp.conds[Imm] and jumps Off when it is false.
	lopBr
	// lopGoto is an unconditional linker-introduced jump (end of a then
	// branch). Unlike OpJmp it costs zero instructions.
	lopGoto
	// lopZero clears the register frame at an inline Do-block boundary,
	// reproducing the tree interpreter's fresh frame per block.
	lopZero

	// Superinstructions fused by the link-time peephole pass. Each
	// reproduces the exact register, state, and instruction-count effects
	// of the source sequence it replaces; it exists only to collapse
	// several dispatches into one.

	// lopLd2 = LdField rd,imm ; LdField rs,off — two PHV loads.
	lopLd2
	// lopFldCp = LdField rd,imm ; StField off,rd — field-to-field copy.
	lopFldCp
	// lopMapInc = MapLoad rd,rs,imm ; AddImm rd,off ; MapStore imm,rs,rd —
	// the read-modify-write counter idiom every stateful app uses.
	lopMapInc
	// lopMapIncR is lopMapInc with a register addend (Add rd,rt).
	lopMapIncR
	// lopLdJImm = LdField rd,fid ; JxxImm rd,val — load-and-branch, the
	// guard idiom opening most actions (TTL check, flag tests). rs carries
	// the source compare opcode; imm packs fid<<32|value. It is a jump:
	// fuseBlock rewrites its offset and isJump must report it.
	lopLdJImm
	// lopAluSt = AddImm/SubImm rd,val ; StField fid,rd — modify a register
	// and write it back to the PHV (the TTL decrement). rs carries the
	// source ALU opcode; off the immediate; imm the field ID.
	lopAluSt
	// lopLdParamFwd = LdParam rd,idx ; Forward rd — the terminal
	// "forward out the table-selected port" pair of every routing action.
	lopLdParamFwd
)

// regMask lets the execution loop index the register frame without a
// bounds check; lowerBlock rejects out-of-range registers at link time,
// so masking never changes the behaviour of a linkable program.
const regMask = NumRegs - 1

// linstr is the linked instruction encoding: 16 bytes, scalar-only. The
// source Instr's Sym string is resolved at link time (OpAddHdr's header
// name to its packet.HeaderID, carried in imm), so linked code packs
// four instructions per cache line and holds no pointers.
type linstr struct {
	op         Op
	rd, rs, rt Reg
	off        int32
	imm        uint64
}

// LinkedEnv is the execution environment a device provides to a linked
// program: slot-addressed access to the program's stateful objects plus
// the device services. Slots index the name lists returned by MapSlots,
// CounterSlots, and MeterSlots; the dataplane resolves them to direct
// object pointers when wiring a linked program.
type LinkedEnv interface {
	MapLoadSlot(slot int, key uint64) (uint64, bool)
	MapStoreSlot(slot int, key, val uint64) error
	CounterAddSlot(slot int, idx, delta uint64)
	MeterExecSlot(slot int, idx, bytes uint64) uint64
	// Now returns current time in nanoseconds of simulation time.
	Now() uint64
}

// linkedCond is a pipeline condition with its field resolved to an
// interned ID. It evaluates exactly as the tree interpreter's evalCond.
type linkedCond struct {
	fid   packet.FieldID
	op    CmpOp
	value uint64
}

// eval evaluates the condition against a packet.
func (c *linkedCond) eval(pkt *packet.Packet) bool {
	lhs := pkt.FieldByID(c.fid)
	switch c.op {
	case CmpEq:
		return lhs == c.value
	case CmpGe:
		return lhs >= c.value
	}
	return false
}

// linkedTable is a resolved table application site.
type linkedTable struct {
	ti *TableInstance
	// keyIDs are the interned key fields in spec order.
	keyIDs []packet.FieldID
	// missIdx is the default action index + 1 (0 = no default).
	missIdx    int32
	missParams []uint64
}

// LinkedProgram is the flattened, symbol-resolved executable form of a
// Program produced by Link. It is immutable after linking; epoch-atomic
// config swaps publish a new LinkedProgram together with the rest of the
// device configuration.
type LinkedProgram struct {
	prog    *Program
	code    []linstr
	conds   []linkedCond
	tables  []linkedTable
	actions [][]linstr // lowered action bodies, indexed as actIdx names them
	actIdx  map[string]int32

	mapNames, counterNames, meterNames []string
}

// MapSlots returns the map names in slot order.
func (lp *LinkedProgram) MapSlots() []string { return lp.mapNames }

// CounterSlots returns the counter names in slot order.
func (lp *LinkedProgram) CounterSlots() []string { return lp.counterNames }

// MeterSlots returns the meter names in slot order.
func (lp *LinkedProgram) MeterSlots() []string { return lp.meterNames }

// ExecContext holds per-instance scratch reused across packets so the
// steady-state path performs no allocation. One context must not be
// shared by concurrent Run calls.
type ExecContext struct {
	regs [NumRegs]uint64
	keys []uint64
}

// NewExecContext returns a context with key scratch preallocated.
func NewExecContext() *ExecContext {
	return &ExecContext{keys: make([]uint64, 0, 8)}
}

type linkError struct {
	prog  string
	where string
	msg   string
}

func (e *linkError) Error() string {
	return fmt.Sprintf("flexbpf: link %s/%s: %s", e.prog, e.where, e.msg)
}

// linker accumulates the lowered form.
type linker struct {
	prog    *Program
	tables  func(string) *TableInstance
	lp      *LinkedProgram
	mapSlot map[string]int
	ctrSlot map[string]int
	mtrSlot map[string]int
	tblIdx  map[string]int
}

// Link compiles prog into its linked executable form. The tables callback
// resolves a table name to the runtime instance the program will run
// against (the caller owns instance creation). Link fails on unresolved
// symbols or malformed blocks; a program that does not link cannot be
// installed (every program Verify accepts links). prog must be verified:
// the linked form runs with no instruction budget and no parameter
// bounds of its own (see exec).
//
// Link binds every table the pipeline applies to the linked program, so
// the table's Insert and ReplaceAll check each entry against the
// program's actions; it fails if an entry already installed does not
// pass that check.
func Link(prog *Program, tables func(string) *TableInstance) (*LinkedProgram, error) {
	lk := &linker{
		prog:    prog,
		tables:  tables,
		lp:      &LinkedProgram{prog: prog, actIdx: make(map[string]int32, len(prog.Actions))},
		mapSlot: make(map[string]int, len(prog.Maps)),
		ctrSlot: make(map[string]int, len(prog.Counters)),
		mtrSlot: make(map[string]int, len(prog.Meters)),
		tblIdx:  make(map[string]int, len(prog.Tables)),
	}
	for i, m := range prog.Maps {
		lk.mapSlot[m.Name] = i
		lk.lp.mapNames = append(lk.lp.mapNames, m.Name)
	}
	for i, c := range prog.Counters {
		lk.ctrSlot[c.Name] = i
		lk.lp.counterNames = append(lk.lp.counterNames, c.Name)
	}
	for i, m := range prog.Meters {
		lk.mtrSlot[m.Name] = i
		lk.lp.meterNames = append(lk.lp.meterNames, m.Name)
	}
	// Actions are indexed in sorted-name order for determinism.
	names := make([]string, 0, len(prog.Actions))
	for n := range prog.Actions {
		names = append(names, n)
	}
	sort.Strings(names)
	for i, n := range names {
		act := prog.Actions[n]
		code, err := lk.lowerBlock(act.Body, "action "+n)
		if err != nil {
			return nil, err
		}
		// Every block starts from a zeroed register frame (the tree
		// interpreter allocates a fresh frame per block). The leading
		// lopZero carries that semantic so the execution loop needs no
		// per-call prologue; relative jump offsets are unaffected.
		code = append([]linstr{{op: lopZero}}, code...)
		lk.lp.actions = append(lk.lp.actions, code)
		lk.lp.actIdx[n] = int32(i)
	}
	if err := lk.lowerStmts(prog.Pipeline); err != nil {
		return nil, err
	}
	for _, t := range lk.lp.tables {
		if err := t.ti.bind(lk.lp); err != nil {
			return nil, err
		}
	}
	return lk.lp, nil
}

// lowerBlock clones a source instruction block with symbols resolved:
// field names to FieldIDs and map/counter/meter names to slot indexes,
// both carried in Imm (unused by those opcodes in source form). Jump
// targets are validated here so the execution loop can skip per-step
// bounds checks.
func (lk *linker) lowerBlock(body []Instr, where string) ([]linstr, error) {
	out := make([]linstr, len(body))
	for pc := range body {
		ins := body[pc]
		li := linstr{op: ins.Op, rd: ins.Rd, rs: ins.Rs, rt: ins.Rt, off: ins.Off, imm: ins.Imm}
		// Register operands are validated here so the execution loop can
		// mask them unconditionally (regMask) without a behaviour change.
		if int(ins.Rd) >= NumRegs || int(ins.Rs) >= NumRegs || int(ins.Rt) >= NumRegs {
			return nil, &linkError{lk.prog.Name, where, fmt.Sprintf("register out of range at pc=%d", pc)}
		}
		switch ins.Op {
		case OpLdField, OpHasField, OpStField:
			li.imm = uint64(packet.InternField(ins.Sym))
		case OpAddHdr:
			id, err := packet.InternHeader(ins.Sym)
			if err != nil {
				return nil, &linkError{lk.prog.Name, where, err.Error()}
			}
			li.imm = uint64(id)
		case OpMapLoad, OpMapHas, OpMapStore:
			slot, ok := lk.mapSlot[ins.Sym]
			if !ok {
				return nil, &linkError{lk.prog.Name, where, fmt.Sprintf("reference to undeclared map %q", ins.Sym)}
			}
			li.imm = uint64(slot)
		case OpCount:
			slot, ok := lk.ctrSlot[ins.Sym]
			if !ok {
				return nil, &linkError{lk.prog.Name, where, fmt.Sprintf("reference to undeclared counter %q", ins.Sym)}
			}
			li.imm = uint64(slot)
		case OpMeterExec:
			slot, ok := lk.mtrSlot[ins.Sym]
			if !ok {
				return nil, &linkError{lk.prog.Name, where, fmt.Sprintf("reference to undeclared meter %q", ins.Sym)}
			}
			li.imm = uint64(slot)
		case OpJmp, OpJEqImm, OpJLtImm, OpJGtImm, OpJLeImm:
			if ins.Off < 0 || pc+1+int(ins.Off) > len(body) {
				return nil, &linkError{lk.prog.Name, where, fmt.Sprintf("jump at pc=%d out of block bounds", pc)}
			}
		default:
			if ins.Op >= opMax {
				return nil, &linkError{lk.prog.Name, where, fmt.Sprintf("illegal opcode %d", ins.Op)}
			}
		}
		out[pc] = li
	}
	return fuseBlock(out), nil
}

// fuseBlock is the link-time peephole pass: it collapses common source
// sequences into single superinstructions. Fused instructions keep the
// source sequence's instruction count and every observable effect; only
// dispatch count changes. Sequences spanning a jump target are left
// alone, and jump offsets are rewritten for the compacted stream.
func fuseBlock(code []linstr) []linstr {
	if len(code) < 2 {
		return code
	}
	isTarget := make([]bool, len(code)+1)
	for i := range code {
		if isJump(code[i].op) {
			isTarget[i+1+int(code[i].off)] = true
		}
	}
	out := make([]linstr, 0, len(code))
	olds := make([]int, 0, len(code)) // out position -> source position
	newIdx := make([]int, len(code)+1)
	for i := 0; i < len(code); {
		newIdx[i] = len(out)
		if f, n := matchFusion(code, i, isTarget); n > 0 {
			for j := 1; j < n; j++ {
				newIdx[i+j] = len(out)
			}
			out = append(out, f)
			olds = append(olds, i)
			i += n
			continue
		}
		out = append(out, code[i])
		olds = append(olds, i)
		i++
	}
	newIdx[len(code)] = len(out)
	for k := range out {
		if isJump(out[k].op) {
			target := olds[k] + 1 + int(out[k].off)
			out[k].off = int32(newIdx[target] - k - 1)
		}
	}
	return out
}

func isJump(op Op) bool {
	switch op {
	case OpJmp, OpJEqImm, OpJLtImm, OpJGtImm, OpJLeImm, lopLdJImm:
		return true
	}
	return false
}

// matchFusion recognizes a fusable sequence starting at i and returns its
// superinstruction and source length, or length 0. Register-aliasing
// guards keep the fused data flow identical to executing the sequence
// step by step.
func matchFusion(code []linstr, i int, isTarget []bool) (linstr, int) {
	a := code[i]
	if i+2 < len(code) && !isTarget[i+1] && !isTarget[i+2] &&
		a.op == OpMapLoad && a.rd != a.rs {
		b, c := code[i+1], code[i+2]
		storeMatches := c.op == OpMapStore && c.imm == a.imm && c.rs == a.rs && c.rt == a.rd
		if storeMatches && b.op == OpAddImm && b.rd == a.rd && b.imm <= 1<<31-1 {
			return linstr{op: lopMapInc, rd: a.rd, rs: a.rs, off: int32(b.imm), imm: a.imm}, 3
		}
		if storeMatches && b.op == OpAdd && b.rd == a.rd && b.rs != a.rd {
			return linstr{op: lopMapIncR, rd: a.rd, rs: a.rs, rt: b.rs, imm: a.imm}, 3
		}
	}
	if i+1 < len(code) && !isTarget[i+1] && a.op == OpLdField {
		b := code[i+1]
		if b.op == OpLdField {
			return linstr{op: lopLd2, rd: a.rd, rs: b.rd, off: int32(b.imm), imm: a.imm}, 2
		}
		if b.op == OpStField && b.rs == a.rd {
			return linstr{op: lopFldCp, rd: a.rd, off: int32(b.imm), imm: a.imm}, 2
		}
		// Load-and-branch: the compared register must be the one just
		// loaded, and both field ID and compare value must fit the packed
		// imm encoding (fid<<32|value). The absorbed jump sat at i+1, so
		// the stored offset is b.off+1 relative to the fused position;
		// fuseBlock's rewrite (olds[k]+1+off) then lands on the original
		// target.
		if b.op >= OpJEqImm && b.op <= OpJLeImm && b.rs == a.rd &&
			b.imm < 1<<32 && a.imm < 1<<31 {
			return linstr{op: lopLdJImm, rd: a.rd, rs: Reg(b.op), off: b.off + 1, imm: a.imm<<32 | b.imm}, 2
		}
	}
	if i+1 < len(code) && !isTarget[i+1] && (a.op == OpAddImm || a.op == OpSubImm) && a.imm <= 1<<31-1 {
		b := code[i+1]
		if b.op == OpStField && b.rs == a.rd {
			return linstr{op: lopAluSt, rd: a.rd, rs: Reg(a.op), off: int32(a.imm), imm: b.imm}, 2
		}
	}
	if i+1 < len(code) && !isTarget[i+1] && a.op == OpLdParam {
		b := code[i+1]
		if b.op == OpForward && b.rs == a.rd {
			return linstr{op: lopLdParamFwd, rd: a.rd, imm: a.imm}, 2
		}
	}
	return linstr{}, 0
}

func (lk *linker) emit(ins linstr) int {
	lk.lp.code = append(lk.lp.code, ins)
	return len(lk.lp.code) - 1
}

// patch sets the jump offset of the instruction at position at so it
// lands on target (offsets are relative to the next instruction).
func (lk *linker) patch(at, target int) {
	lk.lp.code[at].off = int32(target - at - 1)
}

func (lk *linker) lowerStmts(stmts []Stmt) error {
	for i := range stmts {
		s := &stmts[i]
		switch {
		case s.Apply != "":
			idx, err := lk.tableIndex(s.Apply)
			if err != nil {
				return err
			}
			lk.emit(linstr{op: lopApply, imm: uint64(idx)})
		case s.If != nil:
			ci := len(lk.lp.conds)
			c := &s.If.Cond
			lk.lp.conds = append(lk.lp.conds, linkedCond{fid: packet.InternField(c.Field), op: c.Op, value: c.Value})
			br := lk.emit(linstr{op: lopBr, imm: uint64(ci)})
			if err := lk.lowerStmts(s.If.Then); err != nil {
				return err
			}
			if len(s.If.Else) > 0 {
				g := lk.emit(linstr{op: lopGoto})
				lk.patch(br, len(lk.lp.code))
				if err := lk.lowerStmts(s.If.Else); err != nil {
					return err
				}
				lk.patch(g, len(lk.lp.code))
			} else {
				lk.patch(br, len(lk.lp.code))
			}
		case s.Do != nil:
			code, err := lk.lowerBlock(s.Do, "do")
			if err != nil {
				return err
			}
			lk.emit(linstr{op: lopZero})
			for pc := range code {
				ins := code[pc]
				if ins.op == OpRet {
					// OpRet ends the block but not the pipeline; inlined,
					// that is a jump to the end of this block. OpJmp costs
					// one instruction, exactly as OpRet did.
					ins = linstr{op: OpJmp, off: int32(len(code) - pc - 1)}
				}
				lk.lp.code = append(lk.lp.code, ins)
			}
		}
	}
	return nil
}

func (lk *linker) tableIndex(name string) (int, error) {
	if idx, ok := lk.tblIdx[name]; ok {
		return idx, nil
	}
	spec := lk.prog.Table(name)
	if spec == nil {
		return 0, &linkError{lk.prog.Name, "pipeline", fmt.Sprintf("apply of undeclared table %q", name)}
	}
	ti := lk.tables(name)
	if ti == nil {
		return 0, &linkError{lk.prog.Name, "pipeline", fmt.Sprintf("no instance for table %q", name)}
	}
	lt := linkedTable{ti: ti, keyIDs: make([]packet.FieldID, len(spec.Keys))}
	for i, k := range spec.Keys {
		lt.keyIDs[i] = packet.InternField(k.Field)
	}
	if spec.DefaultAction != "" {
		j, ok := lk.lp.actIdx[spec.DefaultAction]
		if !ok {
			return 0, &linkError{lk.prog.Name, "table " + name, fmt.Sprintf("default action %q undefined", spec.DefaultAction)}
		}
		lt.missIdx = j + 1
		lt.missParams = spec.DefaultParams
	}
	idx := len(lk.lp.tables)
	lk.lp.tables = append(lk.lp.tables, lt)
	lk.tblIdx[name] = idx
	return idx, nil
}

// Run executes the linked program over pkt. It produces the same
// ExecResult (verdict, instruction count, lookup count) and the same
// packet/state effects as Interp.Run on the source program; ctx provides
// the reusable scratch that makes the steady-state path allocation-free.
func (lp *LinkedProgram) Run(pkt *packet.Packet, env LinkedEnv, ctx *ExecContext) (ExecResult, error) {
	res := ExecResult{Verdict: packet.VerdictContinue}
	err := lp.exec(lp.code, nil, pkt, env, ctx, &res)
	return res, err
}

// exec runs one lowered block. It checks nothing that installation
// already proved: Link admits only forward jumps and known opcodes, so
// the loop ends; Verify bounds the counted instructions by PacketBudget
// and every LdParam index by its action's NumParams and default params;
// and a bound table's Insert and ReplaceAll admit only entries whose
// action the program defines, with at least NumParams params. An
// entry's actIdx of 0 therefore means exactly "no action".
func (lp *LinkedProgram) exec(code []linstr, params []uint64, pkt *packet.Packet, env LinkedEnv, ctx *ExecContext, res *ExecResult) error {
	// No register prologue: every lowered block (inline Do and action
	// body alike) begins with lopZero, so stale scratch from a previous
	// frame is never observable.
	regs := &ctx.regs
	pc := 0
	// instrs shadows res.Instrs in a register for the hot loop; it is
	// flushed back at every frame exit and around action recursion so the
	// observable count is identical to the tree interpreter's.
	instrs := res.Instrs
	for pc < len(code) {
		ins := code[pc]
		pc++
		// Synthetic linker opcodes replace statement-tree walks; the tree
		// interpreter did not count those, so neither do they. One compare
		// routes them out of the hot dispatch.
		if ins.op > opMax {
			switch ins.op {
			case lopZero:
				*regs = [NumRegs]uint64{}
				continue
			case lopGoto:
				pc += int(ins.off)
				continue
			case lopBr:
				if !lp.conds[ins.imm].eval(pkt) {
					pc += int(ins.off)
				}
				continue
			case lopLd2:
				instrs += 2
				regs[ins.rd&regMask] = pkt.FieldByID(packet.FieldID(ins.imm))
				regs[ins.rs&regMask] = pkt.FieldByID(packet.FieldID(ins.off))
				continue
			case lopFldCp:
				instrs += 2
				v := pkt.FieldByID(packet.FieldID(ins.imm))
				regs[ins.rd&regMask] = v
				pkt.SetFieldByID(packet.FieldID(ins.off), v)
				continue
			case lopMapInc, lopMapIncR:
				instrs += 3
				k := regs[ins.rs&regMask]
				v, _ := env.MapLoadSlot(int(ins.imm), k)
				if ins.op == lopMapInc {
					v += uint64(ins.off)
				} else {
					v += regs[ins.rt&regMask]
				}
				regs[ins.rd&regMask] = v
				_ = env.MapStoreSlot(int(ins.imm), k, v)
				continue
			case lopLdJImm:
				instrs += 2
				v := pkt.FieldByID(packet.FieldID(ins.imm >> 32))
				regs[ins.rd&regMask] = v
				if cmpImm(Op(ins.rs), v, ins.imm&(1<<32-1)) {
					pc += int(ins.off)
				}
				continue
			case lopAluSt:
				instrs += 2
				v := regs[ins.rd&regMask]
				if Op(ins.rs) == OpAddImm {
					v += uint64(ins.off)
				} else {
					v -= uint64(ins.off)
				}
				regs[ins.rd&regMask] = v
				pkt.SetFieldByID(packet.FieldID(ins.imm), v)
				continue
			case lopLdParamFwd:
				instrs += 2
				v := params[ins.imm]
				regs[ins.rd&regMask] = v
				pkt.EgressPort = int(v)
				res.Instrs = instrs
				res.Verdict = packet.VerdictForward
				return nil
			}
			// lopApply
			t := &lp.tables[ins.imm]
			keys := ctx.keys[:0]
			for _, fid := range t.keyIDs {
				keys = append(keys, pkt.FieldByID(fid))
			}
			ctx.keys = keys
			res.Instrs = instrs
			res.Lookups++
			idx, aparams := t.missIdx-1, t.missParams
			if e, hit := t.ti.LookupEntry(keys); hit {
				idx, aparams = e.actIdx-1, e.Params
			}
			if idx < 0 {
				continue
			}
			if err := lp.exec(lp.actions[idx], aparams, pkt, env, ctx, res); err != nil {
				return err
			}
			instrs = res.Instrs
			if res.Verdict != packet.VerdictContinue {
				return nil
			}
			continue
		}
		instrs++
		switch ins.op {
		case OpMovImm:
			regs[ins.rd&regMask] = ins.imm
		case OpMov:
			regs[ins.rd&regMask] = regs[ins.rs&regMask]
		case OpLdField:
			regs[ins.rd&regMask] = pkt.FieldByID(packet.FieldID(ins.imm))
		case OpHasField:
			if _, ok := pkt.FieldOKByID(packet.FieldID(ins.imm)); ok {
				regs[ins.rd&regMask] = 1
			} else {
				regs[ins.rd&regMask] = 0
			}
		case OpStField:
			pkt.SetFieldByID(packet.FieldID(ins.imm), regs[ins.rs&regMask])
		case OpAddHdr:
			if err := pkt.AddHeaderID(packet.HeaderID(ins.imm)); err != nil {
				res.Instrs = instrs
				return &execError{lp.prog.Name, pc - 1, err.Error()}
			}
		case OpLdParam:
			regs[ins.rd&regMask] = params[ins.imm]
		case OpAdd:
			regs[ins.rd&regMask] += regs[ins.rs&regMask]
		case OpMod:
			if regs[ins.rs&regMask] == 0 {
				regs[ins.rd&regMask] = 0
			} else {
				regs[ins.rd&regMask] %= regs[ins.rs&regMask]
			}
		case OpOr:
			regs[ins.rd&regMask] |= regs[ins.rs&regMask]
		case OpXor:
			regs[ins.rd&regMask] ^= regs[ins.rs&regMask]
		case OpMin:
			if regs[ins.rs&regMask] < regs[ins.rd&regMask] {
				regs[ins.rd&regMask] = regs[ins.rs&regMask]
			}
		case OpAddImm:
			regs[ins.rd&regMask] += ins.imm
		case OpSubImm:
			regs[ins.rd&regMask] -= ins.imm
		case OpAndImm:
			regs[ins.rd&regMask] &= ins.imm
		case OpXorImm:
			regs[ins.rd&regMask] ^= ins.imm
		case OpShlImm:
			regs[ins.rd&regMask] <<= ins.imm & 63
		case OpMapLoad:
			v, _ := env.MapLoadSlot(int(ins.imm), regs[ins.rs&regMask])
			regs[ins.rd&regMask] = v
		case OpMapHas:
			if _, ok := env.MapLoadSlot(int(ins.imm), regs[ins.rs&regMask]); ok {
				regs[ins.rd&regMask] = 1
			} else {
				regs[ins.rd&regMask] = 0
			}
		case OpMapStore:
			// Store failures (map full) are silent at the data plane,
			// matching hardware insert-miss semantics.
			_ = env.MapStoreSlot(int(ins.imm), regs[ins.rs&regMask], regs[ins.rt&regMask])
		case OpHash:
			regs[ins.rd&regMask] = fnv64(regs[ins.rs&regMask])
		case OpFlowHash:
			regs[ins.rd&regMask] = pkt.FlowKey().Hash()
		case OpNow:
			regs[ins.rd&regMask] = env.Now()
		case OpPktLen:
			regs[ins.rd&regMask] = uint64(pkt.Len())
		case OpCount:
			env.CounterAddSlot(int(ins.imm), regs[ins.rs&regMask], regs[ins.rt&regMask])
		case OpMeterExec:
			regs[ins.rd&regMask] = env.MeterExecSlot(int(ins.imm), regs[ins.rs&regMask], regs[ins.rt&regMask])
		case OpJmp:
			pc += int(ins.off)
		case OpJEqImm, OpJLtImm, OpJGtImm, OpJLeImm:
			if cmpImm(ins.op, regs[ins.rs&regMask], ins.imm) {
				pc += int(ins.off)
			}
		case OpDrop:
			res.Instrs = instrs
			res.Verdict = packet.VerdictDrop
			return nil
		case OpForward:
			pkt.EgressPort = int(regs[ins.rs&regMask])
			res.Instrs = instrs
			res.Verdict = packet.VerdictForward
			return nil
		case OpPunt:
			res.Instrs = instrs
			res.Verdict = packet.VerdictToController
			return nil
		case OpRet:
			res.Instrs = instrs
			return nil
		}
	}
	res.Instrs = instrs
	return nil
}
