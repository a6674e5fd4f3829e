package flexbpf

import (
	"fmt"
	"strings"
)

// VerifyError describes a verification failure with its location.
type VerifyError struct {
	Program string
	Where   string
	PC      int
	Msg     string
}

func (e *VerifyError) Error() string {
	if e.PC >= 0 {
		return fmt.Sprintf("flexbpf: verify %s/%s pc=%d: %s", e.Program, e.Where, e.PC, e.Msg)
	}
	return fmt.Sprintf("flexbpf: verify %s/%s: %s", e.Program, e.Where, e.Msg)
}

// Verify checks a program against FlexBPF's static safety rules (§3.1:
// "FlexBPF programs are analyzable to certify bounded execution,
// well-behavedness, and to enable automated compilation to constrained
// targets"). The rules are:
//
//  1. Bounded execution: all jumps are strictly forward and in-bounds,
//     no block exceeds MaxInstrs instructions, and the whole program's
//     WorstCaseInstrs is at most PacketBudget, so per-packet work is
//     statically bounded. The linked executor relies on this bound and
//     has no run-time stop of its own.
//  2. Register safety: every register is written before it is read.
//  3. Reference integrity: every map, counter, meter, table, action,
//     header, and action-parameter reference resolves within the program.
//  4. Structural sanity: table key/action declarations are well formed;
//     pipeline applies name declared tables; no duplicate names.
//
// A nil return certifies the program safe for any conforming device.
func Verify(p *Program) error {
	if p.Name == "" {
		return &VerifyError{"?", "program", -1, "program has no name"}
	}
	if err := verifyDecls(p); err != nil {
		return err
	}
	// Verify actions.
	for name, act := range p.Actions {
		if name != act.Name {
			return &VerifyError{p.Name, "action " + name, -1, "map key and action name disagree"}
		}
		if err := verifyBlock(p, "action "+name, act.Body, act.NumParams); err != nil {
			return err
		}
	}
	// Verify pipeline.
	if err := verifyStmts(p, "pipeline", p.Pipeline); err != nil {
		return err
	}
	if wc := WorstCaseInstrs(p); wc > PacketBudget {
		return &VerifyError{p.Name, "program", -1, fmt.Sprintf("worst case %d instructions per packet exceeds the budget of %d", wc, PacketBudget)}
	}
	return nil
}

func verifyDecls(p *Program) error {
	seen := map[string]string{} // name → kind
	claim := func(kind, name string) error {
		if name == "" {
			return &VerifyError{p.Name, kind, -1, "empty name"}
		}
		if prev, dup := seen[name]; dup {
			return &VerifyError{p.Name, kind + " " + name, -1, "name already used by " + prev}
		}
		seen[name] = kind
		return nil
	}
	for _, m := range p.Maps {
		if err := claim("map", m.Name); err != nil {
			return err
		}
		if m.MaxEntries <= 0 {
			return &VerifyError{p.Name, "map " + m.Name, -1, "MaxEntries must be positive"}
		}
		if m.ValueBits <= 0 || m.ValueBits > 64 {
			return &VerifyError{p.Name, "map " + m.Name, -1, fmt.Sprintf("ValueBits %d out of range (1..64)", m.ValueBits)}
		}
	}
	for _, c := range p.Counters {
		if err := claim("counter", c.Name); err != nil {
			return err
		}
		if c.Size <= 0 {
			return &VerifyError{p.Name, "counter " + c.Name, -1, "Size must be positive"}
		}
	}
	for _, m := range p.Meters {
		if err := claim("meter", m.Name); err != nil {
			return err
		}
		if m.Size <= 0 {
			return &VerifyError{p.Name, "meter " + m.Name, -1, "Size must be positive"}
		}
		if m.PIR < m.CIR {
			return &VerifyError{p.Name, "meter " + m.Name, -1, "PIR below CIR"}
		}
	}
	for _, t := range p.Tables {
		if err := claim("table", t.Name); err != nil {
			return err
		}
		if len(t.Keys) == 0 {
			return &VerifyError{p.Name, "table " + t.Name, -1, "table has no keys"}
		}
		if t.Size <= 0 {
			return &VerifyError{p.Name, "table " + t.Name, -1, "Size must be positive"}
		}
		for _, k := range t.Keys {
			if !validFieldName(k.Field) {
				return &VerifyError{p.Name, "table " + t.Name, -1, fmt.Sprintf("malformed key field %q", k.Field)}
			}
			if k.Bits < 0 || k.Bits > 64 {
				return &VerifyError{p.Name, "table " + t.Name, -1, fmt.Sprintf("key %s width %d out of range", k.Field, k.Bits)}
			}
		}
		if len(t.Actions) == 0 && t.DefaultAction == "" {
			return &VerifyError{p.Name, "table " + t.Name, -1, "table has no actions and no default"}
		}
		for _, a := range t.Actions {
			if _, ok := p.Actions[a]; !ok {
				return &VerifyError{p.Name, "table " + t.Name, -1, fmt.Sprintf("references undefined action %q", a)}
			}
		}
		if t.DefaultAction != "" {
			da, ok := p.Actions[t.DefaultAction]
			if !ok {
				return &VerifyError{p.Name, "table " + t.Name, -1, fmt.Sprintf("default action %q undefined", t.DefaultAction)}
			}
			if len(t.DefaultParams) < da.NumParams {
				return &VerifyError{p.Name, "table " + t.Name, -1,
					fmt.Sprintf("default action %q needs %d params, have %d", t.DefaultAction, da.NumParams, len(t.DefaultParams))}
			}
		}
	}
	return nil
}

func verifyStmts(p *Program, where string, stmts []Stmt) error {
	for i, s := range stmts {
		set := 0
		if s.Apply != "" {
			set++
		}
		if s.If != nil {
			set++
		}
		if s.Do != nil {
			set++
		}
		if set != 1 {
			return &VerifyError{p.Name, where, i, fmt.Sprintf("statement must set exactly one of Apply/If/Do, has %d", set)}
		}
		switch {
		case s.Apply != "":
			if p.Table(s.Apply) == nil {
				return &VerifyError{p.Name, where, i, fmt.Sprintf("apply of undeclared table %q", s.Apply)}
			}
		case s.If != nil:
			c := s.If.Cond
			if !validFieldName(c.Field) {
				return &VerifyError{p.Name, where, i, fmt.Sprintf("if condition has malformed field %q", c.Field)}
			}
			if c.Op != CmpEq && c.Op != CmpGe {
				return &VerifyError{p.Name, where, i, fmt.Sprintf("if condition has unknown operator %s", c.Op)}
			}
			sub := fmt.Sprintf("%s/if[%d]", where, i)
			if err := verifyStmts(p, sub+"/then", s.If.Then); err != nil {
				return err
			}
			if err := verifyStmts(p, sub+"/else", s.If.Else); err != nil {
				return err
			}
		case s.Do != nil:
			if err := verifyBlock(p, fmt.Sprintf("%s/do[%d]", where, i), s.Do, 0); err != nil {
				return err
			}
		}
	}
	return nil
}

// opClass describes operand usage for register-safety analysis.
type opClass struct {
	readsRs, readsRt, readsRd bool
	writesRd                  bool
	sym                       symKind
	jump                      bool
	terminal                  bool
}

type symKind uint8

const (
	symNone symKind = iota
	symField
	symHeader
	symMap
	symCounter
	symMeter
)

var opClasses = map[Op]opClass{
	OpMovImm:   {writesRd: true},
	OpMov:      {readsRs: true, writesRd: true},
	OpLdField:  {writesRd: true, sym: symField},
	OpHasField: {writesRd: true, sym: symField},
	OpStField:  {readsRs: true, sym: symField},
	OpAddHdr:   {sym: symHeader},
	OpLdParam:  {writesRd: true},

	OpAdd: {readsRs: true, readsRd: true, writesRd: true},
	OpMod: {readsRs: true, readsRd: true, writesRd: true},
	OpOr:  {readsRs: true, readsRd: true, writesRd: true},
	OpXor: {readsRs: true, readsRd: true, writesRd: true},
	OpMin: {readsRs: true, readsRd: true, writesRd: true},

	OpAddImm: {readsRd: true, writesRd: true},
	OpSubImm: {readsRd: true, writesRd: true},
	OpAndImm: {readsRd: true, writesRd: true},
	OpXorImm: {readsRd: true, writesRd: true},
	OpShlImm: {readsRd: true, writesRd: true},

	OpMapLoad:  {readsRs: true, writesRd: true, sym: symMap},
	OpMapHas:   {readsRs: true, writesRd: true, sym: symMap},
	OpMapStore: {readsRs: true, readsRt: true, sym: symMap},

	OpHash:     {readsRs: true, writesRd: true},
	OpFlowHash: {writesRd: true},
	OpNow:      {writesRd: true},
	OpPktLen:   {writesRd: true},

	OpCount:     {readsRs: true, readsRt: true, sym: symCounter},
	OpMeterExec: {readsRs: true, readsRt: true, writesRd: true, sym: symMeter},

	OpJmp:    {jump: true},
	OpJEqImm: {readsRs: true, jump: true},
	OpJLtImm: {readsRs: true, jump: true},
	OpJGtImm: {readsRs: true, jump: true},
	OpJLeImm: {readsRs: true, jump: true},

	OpDrop:    {terminal: true},
	OpForward: {readsRs: true, terminal: true},
	OpPunt:    {terminal: true},
	OpRet:     {terminal: true},
}

func verifyBlock(p *Program, where string, code []Instr, numParams int) error {
	if len(code) > MaxInstrs {
		return &VerifyError{p.Name, where, -1, fmt.Sprintf("block has %d instructions, max %d", len(code), MaxInstrs)}
	}
	// Register initialization: a bitmask dataflow pass. Because jumps are
	// forward-only, a single forward sweep that intersects initialization
	// sets at join points is sound.
	const allRegs = 1<<NumRegs - 1
	// initAt[i] = set of registers definitely initialized when reaching i.
	initAt := make([]uint32, len(code)+1)
	reachable := make([]bool, len(code)+1)
	for i := range initAt {
		initAt[i] = allRegs // ⊤ until proven otherwise
	}
	if len(code) == 0 {
		return nil
	}
	initAt[0] = 0
	reachable[0] = true

	join := func(idx int, set uint32) {
		if idx < 0 || idx > len(code) {
			return
		}
		if !reachable[idx] {
			reachable[idx] = true
			initAt[idx] = set
		} else {
			initAt[idx] &= set
		}
	}

	for pc := 0; pc < len(code); pc++ {
		ins := &code[pc]
		cls, ok := opClasses[ins.Op]
		if !ok {
			return &VerifyError{p.Name, where, pc, fmt.Sprintf("illegal opcode %d", ins.Op)}
		}
		if !reachable[pc] {
			// Unreachable code is rejected: it wastes device resources and
			// usually signals a delta-application bug.
			return &VerifyError{p.Name, where, pc, "unreachable instruction"}
		}
		if err := checkOperands(p, where, pc, ins, cls, numParams); err != nil {
			return err
		}
		set := initAt[pc]
		if cls.readsRd && set&(1<<ins.Rd) == 0 {
			return &VerifyError{p.Name, where, pc, fmt.Sprintf("read of uninitialized register r%d", ins.Rd)}
		}
		if cls.readsRs && set&(1<<ins.Rs) == 0 {
			return &VerifyError{p.Name, where, pc, fmt.Sprintf("read of uninitialized register r%d", ins.Rs)}
		}
		if cls.readsRt && set&(1<<ins.Rt) == 0 {
			return &VerifyError{p.Name, where, pc, fmt.Sprintf("read of uninitialized register r%d", ins.Rt)}
		}
		if cls.writesRd {
			set |= 1 << ins.Rd
		}
		if cls.jump {
			if ins.Off < 0 {
				return &VerifyError{p.Name, where, pc, fmt.Sprintf("backward jump (off=%d): bounded execution requires forward-only control flow", ins.Off)}
			}
			target := pc + 1 + int(ins.Off)
			if target > len(code) {
				return &VerifyError{p.Name, where, pc, fmt.Sprintf("jump target %d beyond block end %d", target, len(code))}
			}
			join(target, set)
			if ins.Op != OpJmp {
				join(pc+1, set) // fallthrough
			}
			continue
		}
		if cls.terminal {
			continue // no successor
		}
		join(pc+1, set)
	}
	return nil
}

func checkOperands(p *Program, where string, pc int, ins *Instr, cls opClass, numParams int) error {
	if ins.Rd >= NumRegs || ins.Rs >= NumRegs || ins.Rt >= NumRegs {
		return &VerifyError{p.Name, where, pc, "register index out of range"}
	}
	switch cls.sym {
	case symField:
		if !validFieldName(ins.Sym) {
			return &VerifyError{p.Name, where, pc, fmt.Sprintf("malformed field name %q", ins.Sym)}
		}
	case symHeader:
		if ins.Sym == "" || strings.Contains(ins.Sym, ".") {
			return &VerifyError{p.Name, where, pc, fmt.Sprintf("malformed header name %q", ins.Sym)}
		}
	case symMap:
		if p.Map(ins.Sym) == nil {
			return &VerifyError{p.Name, where, pc, fmt.Sprintf("reference to undeclared map %q", ins.Sym)}
		}
	case symCounter:
		if p.Counter(ins.Sym) == nil {
			return &VerifyError{p.Name, where, pc, fmt.Sprintf("reference to undeclared counter %q", ins.Sym)}
		}
	case symMeter:
		if p.Meter(ins.Sym) == nil {
			return &VerifyError{p.Name, where, pc, fmt.Sprintf("reference to undeclared meter %q", ins.Sym)}
		}
	}
	if ins.Op == OpLdParam && int(ins.Imm) >= numParams {
		return &VerifyError{p.Name, where, pc, fmt.Sprintf("param %d out of range (action declares %d)", ins.Imm, numParams)}
	}
	return nil
}

// validFieldName requires the "header.field" shape with nonempty parts.
func validFieldName(s string) bool {
	dot := strings.IndexByte(s, '.')
	if dot <= 0 || dot == len(s)-1 {
		return false
	}
	if strings.IndexByte(s[dot+1:], '.') >= 0 {
		return false
	}
	return true
}

// WorstCaseInstrs bounds per-packet instructions for the whole program:
// the sum over pipeline Do blocks and the maximum action body of each
// applied table (the verifier guarantees each block runs at most once
// per packet per application).
func WorstCaseInstrs(p *Program) int {
	total := 0
	walkStmts(p.Pipeline, func(s *Stmt) {
		switch {
		case s.Do != nil:
			total += len(s.Do)
		case s.Apply != "":
			t := p.Table(s.Apply)
			if t == nil {
				return
			}
			max := 0
			for _, a := range t.Actions {
				if act := p.Actions[a]; act != nil && len(act.Body) > max {
					max = len(act.Body)
				}
			}
			if t.DefaultAction != "" {
				if act := p.Actions[t.DefaultAction]; act != nil && len(act.Body) > max {
					max = len(act.Body)
				}
			}
			total += max
		}
	})
	return total
}
