package flexbpf

import (
	"fmt"
	"sort"
	"strings"
)

var opNames = map[Op]string{
	OpMovImm: "movi", OpMov: "mov",
	OpLdField: "ldf", OpHasField: "hasf", OpStField: "stf",
	OpAddHdr: "addh", OpLdParam: "ldp",
	OpAdd: "add", OpMod: "mod", OpOr: "or", OpXor: "xor", OpMin: "min",
	OpAddImm: "addi", OpSubImm: "subi", OpAndImm: "andi", OpXorImm: "xori", OpShlImm: "shli",
	OpMapLoad: "mld", OpMapHas: "mhas", OpMapStore: "mst",
	OpHash: "hash", OpFlowHash: "fhash", OpNow: "now", OpPktLen: "plen",
	OpCount: "cnt", OpMeterExec: "mtr",
	OpJmp: "jmp", OpJEqImm: "jeqi", OpJLtImm: "jlti", OpJGtImm: "jgti", OpJLeImm: "jlei",
	OpDrop: "drop", OpForward: "fwd", OpPunt: "punt", OpRet: "ret",
}

// OpName returns the assembly mnemonic of op.
func OpName(op Op) string {
	if n, ok := opNames[op]; ok {
		return n
	}
	return fmt.Sprintf("op%d", uint8(op))
}

// String disassembles one instruction.
func (i Instr) String() string {
	cls := opClasses[i.Op]
	parts := []string{OpName(i.Op)}
	if cls.writesRd || cls.readsRd {
		parts = append(parts, fmt.Sprintf("r%d", i.Rd))
	}
	if cls.readsRs {
		parts = append(parts, fmt.Sprintf("r%d", i.Rs))
	}
	if cls.readsRt {
		parts = append(parts, fmt.Sprintf("r%d", i.Rt))
	}
	if i.Sym != "" {
		parts = append(parts, i.Sym)
	}
	switch i.Op {
	case OpMovImm, OpLdParam, OpAddImm, OpSubImm, OpAndImm, OpXorImm, OpShlImm,
		OpJEqImm, OpJLtImm, OpJGtImm, OpJLeImm:
		parts = append(parts, fmt.Sprintf("#%d", i.Imm))
	}
	if cls.jump {
		parts = append(parts, fmt.Sprintf("+%d", i.Off))
	}
	return strings.Join(parts, " ")
}

// Disasm renders an instruction block, one instruction per line with
// program counters.
func Disasm(code []Instr) string {
	var b strings.Builder
	for pc, ins := range code {
		fmt.Fprintf(&b, "%4d: %s\n", pc, ins.String())
	}
	return b.String()
}

// Dump renders a full program listing: declarations, actions, pipeline.
func Dump(p *Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\n", p.Name)
	for _, m := range p.Maps {
		shared := ""
		if m.Shared {
			shared = " shared"
		}
		fmt.Fprintf(&b, "  map %s %s[%d] value:%db%s\n", m.Name, m.Kind, m.MaxEntries, m.ValueBits, shared)
	}
	for _, c := range p.Counters {
		fmt.Fprintf(&b, "  counter %s[%d]\n", c.Name, c.Size)
	}
	for _, m := range p.Meters {
		fmt.Fprintf(&b, "  meter %s[%d] cir=%d pir=%d\n", m.Name, m.Size, m.CIR, m.PIR)
	}
	// Stable action order: table order first, then leftovers sorted.
	for _, t := range p.Tables {
		keys := make([]string, len(t.Keys))
		for i, k := range t.Keys {
			keys[i] = fmt.Sprintf("%s:%s", k.Field, k.Kind)
		}
		fmt.Fprintf(&b, "  table %s [%s] size=%d actions=%s default=%s\n",
			t.Name, strings.Join(keys, ","), t.Size, strings.Join(t.Actions, ","), t.DefaultAction)
	}
	names := make([]string, 0, len(p.Actions))
	for n := range p.Actions {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := p.Actions[n]
		fmt.Fprintf(&b, "  action %s(%d params):\n", a.Name, a.NumParams)
		for pc, ins := range a.Body {
			fmt.Fprintf(&b, "    %4d: %s\n", pc, ins.String())
		}
	}
	b.WriteString("  pipeline:\n")
	dumpStmts(&b, p.Pipeline, "    ")
	return b.String()
}

func dumpStmts(b *strings.Builder, stmts []Stmt, indent string) {
	for _, s := range stmts {
		switch {
		case s.Apply != "":
			fmt.Fprintf(b, "%sapply %s\n", indent, s.Apply)
		case s.If != nil:
			fmt.Fprintf(b, "%sif %s\n", indent, condString(s.If.Cond))
			dumpStmts(b, s.If.Then, indent+"  ")
			if len(s.If.Else) > 0 {
				fmt.Fprintf(b, "%selse\n", indent)
				dumpStmts(b, s.If.Else, indent+"  ")
			}
		case s.Do != nil:
			fmt.Fprintf(b, "%sdo {%d instrs}\n", indent, len(s.Do))
		}
	}
}

func condString(c Cond) string {
	return fmt.Sprintf("%s %s %d", c.Field, c.Op, c.Value)
}
