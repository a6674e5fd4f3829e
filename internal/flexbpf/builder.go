package flexbpf

import "fmt"

// Asm assembles instruction blocks with forward-label resolution, so
// program authors never hand-compute jump offsets.
//
//	code := flexbpf.NewAsm().
//		LdField(0, "tcp.flags").
//		AndImm(0, packet.TCPSyn).
//		JEqImm(0, 0, "pass").
//		Drop().
//		Label("pass").
//		Ret().
//		MustBuild()
type Asm struct {
	code   []Instr
	labels map[string]int
	// fixups[i] = label name for instruction i needing its Off patched.
	fixups map[int]string
	err    error
}

// NewAsm creates an empty assembler.
func NewAsm() *Asm {
	return &Asm{labels: map[string]int{}, fixups: map[int]string{}}
}

func (a *Asm) emit(i Instr) *Asm {
	a.code = append(a.code, i)
	return a
}

// Label defines a jump target at the current position.
func (a *Asm) Label(name string) *Asm {
	if _, dup := a.labels[name]; dup && a.err == nil {
		a.err = fmt.Errorf("flexbpf: duplicate label %q", name)
	}
	a.labels[name] = len(a.code)
	return a
}

func (a *Asm) jump(op Op, rs, rt Reg, imm uint64, label string) *Asm {
	a.fixups[len(a.code)] = label
	return a.emit(Instr{Op: op, Rs: rs, Rt: rt, Imm: imm})
}

// Build resolves labels and returns the block.
func (a *Asm) Build() ([]Instr, error) {
	if a.err != nil {
		return nil, a.err
	}
	for idx, label := range a.fixups {
		target, ok := a.labels[label]
		if !ok {
			return nil, fmt.Errorf("flexbpf: undefined label %q", label)
		}
		off := target - idx - 1
		if off < 0 {
			return nil, fmt.Errorf("flexbpf: label %q is backward from pc %d (forward-only jumps)", label, idx)
		}
		a.code[idx].Off = int32(off)
	}
	return a.code, nil
}

// MustBuild is Build that panics on error; for statically-known programs.
func (a *Asm) MustBuild() []Instr {
	code, err := a.Build()
	if err != nil {
		panic(err)
	}
	return code
}

// MovImm sets rd = imm.
func (a *Asm) MovImm(rd Reg, imm uint64) *Asm { return a.emit(Instr{Op: OpMovImm, Rd: rd, Imm: imm}) }

// Mov sets rd = rs.
func (a *Asm) Mov(rd, rs Reg) *Asm { return a.emit(Instr{Op: OpMov, Rd: rd, Rs: rs}) }

// LdField loads a packet field into rd.
func (a *Asm) LdField(rd Reg, field string) *Asm {
	return a.emit(Instr{Op: OpLdField, Rd: rd, Sym: field})
}

// HasField sets rd to 1 if the field is present.
func (a *Asm) HasField(rd Reg, field string) *Asm {
	return a.emit(Instr{Op: OpHasField, Rd: rd, Sym: field})
}

// StField stores rs into a packet field.
func (a *Asm) StField(field string, rs Reg) *Asm {
	return a.emit(Instr{Op: OpStField, Rs: rs, Sym: field})
}

// AddHdr marks a header present.
func (a *Asm) AddHdr(header string) *Asm { return a.emit(Instr{Op: OpAddHdr, Sym: header}) }

// LdParam loads action parameter idx into rd.
func (a *Asm) LdParam(rd Reg, idx uint64) *Asm {
	return a.emit(Instr{Op: OpLdParam, Rd: rd, Imm: idx})
}

// ALU register forms.

// Add sets rd += rs.
func (a *Asm) Add(rd, rs Reg) *Asm { return a.emit(Instr{Op: OpAdd, Rd: rd, Rs: rs}) }

// Mod sets rd %= rs (0 if rs is 0).
func (a *Asm) Mod(rd, rs Reg) *Asm { return a.emit(Instr{Op: OpMod, Rd: rd, Rs: rs}) }

// Or sets rd |= rs.
func (a *Asm) Or(rd, rs Reg) *Asm { return a.emit(Instr{Op: OpOr, Rd: rd, Rs: rs}) }

// Xor sets rd ^= rs.
func (a *Asm) Xor(rd, rs Reg) *Asm { return a.emit(Instr{Op: OpXor, Rd: rd, Rs: rs}) }

// Min sets rd = min(rd, rs).
func (a *Asm) Min(rd, rs Reg) *Asm { return a.emit(Instr{Op: OpMin, Rd: rd, Rs: rs}) }

// ALU immediate forms.

// AddImm sets rd += imm.
func (a *Asm) AddImm(rd Reg, imm uint64) *Asm { return a.emit(Instr{Op: OpAddImm, Rd: rd, Imm: imm}) }

// SubImm sets rd -= imm.
func (a *Asm) SubImm(rd Reg, imm uint64) *Asm { return a.emit(Instr{Op: OpSubImm, Rd: rd, Imm: imm}) }

// AndImm sets rd &= imm.
func (a *Asm) AndImm(rd Reg, imm uint64) *Asm { return a.emit(Instr{Op: OpAndImm, Rd: rd, Imm: imm}) }

// XorImm sets rd ^= imm.
func (a *Asm) XorImm(rd Reg, imm uint64) *Asm { return a.emit(Instr{Op: OpXorImm, Rd: rd, Imm: imm}) }

// ShlImm sets rd <<= imm.
func (a *Asm) ShlImm(rd Reg, imm uint64) *Asm { return a.emit(Instr{Op: OpShlImm, Rd: rd, Imm: imm}) }

// Map operations.

// MapLoad loads map[rs] into rd.
func (a *Asm) MapLoad(rd Reg, mapName string, rs Reg) *Asm {
	return a.emit(Instr{Op: OpMapLoad, Rd: rd, Rs: rs, Sym: mapName})
}

// MapHas sets rd to 1 if key rs exists in the map.
func (a *Asm) MapHas(rd Reg, mapName string, rs Reg) *Asm {
	return a.emit(Instr{Op: OpMapHas, Rd: rd, Rs: rs, Sym: mapName})
}

// MapStore sets map[rs] = rt.
func (a *Asm) MapStore(mapName string, rs, rt Reg) *Asm {
	return a.emit(Instr{Op: OpMapStore, Rs: rs, Rt: rt, Sym: mapName})
}

// Intrinsics.

// Hash sets rd = fnv64(rs).
func (a *Asm) Hash(rd, rs Reg) *Asm { return a.emit(Instr{Op: OpHash, Rd: rd, Rs: rs}) }

// FlowHash sets rd to the packet's 5-tuple hash.
func (a *Asm) FlowHash(rd Reg) *Asm { return a.emit(Instr{Op: OpFlowHash, Rd: rd}) }

// Now sets rd to the current time in nanoseconds.
func (a *Asm) Now(rd Reg) *Asm { return a.emit(Instr{Op: OpNow, Rd: rd}) }

// PktLen sets rd to the packet length.
func (a *Asm) PktLen(rd Reg) *Asm { return a.emit(Instr{Op: OpPktLen, Rd: rd}) }

// Count adds rt to counter[rs].
func (a *Asm) Count(counter string, rs, rt Reg) *Asm {
	return a.emit(Instr{Op: OpCount, Rs: rs, Rt: rt, Sym: counter})
}

// MeterExec charges rt bytes to meter[rs]; color in rd.
func (a *Asm) MeterExec(rd Reg, meter string, rs, rt Reg) *Asm {
	return a.emit(Instr{Op: OpMeterExec, Rd: rd, Rs: rs, Rt: rt, Sym: meter})
}

// Control flow (labels).

// JEqImm jumps to label if rs == imm.
func (a *Asm) JEqImm(rs Reg, imm uint64, label string) *Asm {
	return a.jump(OpJEqImm, rs, 0, imm, label)
}

// JLtImm jumps to label if rs < imm.
func (a *Asm) JLtImm(rs Reg, imm uint64, label string) *Asm {
	return a.jump(OpJLtImm, rs, 0, imm, label)
}

// JGtImm jumps to label if rs > imm.
func (a *Asm) JGtImm(rs Reg, imm uint64, label string) *Asm {
	return a.jump(OpJGtImm, rs, 0, imm, label)
}

// JLeImm jumps to label if rs <= imm.
func (a *Asm) JLeImm(rs Reg, imm uint64, label string) *Asm {
	return a.jump(OpJLeImm, rs, 0, imm, label)
}

// Verdicts.

// Drop drops the packet.
func (a *Asm) Drop() *Asm { return a.emit(Instr{Op: OpDrop}) }

// Forward forwards via the port number held in rs.
func (a *Asm) Forward(rs Reg) *Asm { return a.emit(Instr{Op: OpForward, Rs: rs}) }

// Punt sends the packet to the controller.
func (a *Asm) Punt() *Asm { return a.emit(Instr{Op: OpPunt}) }

// Ret ends the block without a terminal verdict.
func (a *Asm) Ret() *Asm { return a.emit(Instr{Op: OpRet}) }

// ProgramBuilder constructs Programs fluently; Build verifies.
type ProgramBuilder struct {
	p   *Program
	err error
}

// NewProgram starts a builder for a program with the given name.
func NewProgram(name string) *ProgramBuilder {
	return &ProgramBuilder{p: &Program{Name: name, Actions: map[string]*Action{}}}
}

// Requires declares required device capabilities.
func (b *ProgramBuilder) Requires(c Capabilities) *ProgramBuilder {
	b.p.Requires = c
	return b
}

// Headers declares required headers.
func (b *ProgramBuilder) Headers(names ...string) *ProgramBuilder {
	b.p.RequiredHeaders = append(b.p.RequiredHeaders, names...)
	return b
}

// HashMap declares a hash map.
func (b *ProgramBuilder) HashMap(name string, maxEntries, valueBits int) *ProgramBuilder {
	b.p.Maps = append(b.p.Maps, &MapSpec{Name: name, Kind: MapHash, MaxEntries: maxEntries, ValueBits: valueBits})
	return b
}

// ArrayMap declares a register-file style array map.
func (b *ProgramBuilder) ArrayMap(name string, entries, valueBits int) *ProgramBuilder {
	b.p.Maps = append(b.p.Maps, &MapSpec{Name: name, Kind: MapArray, MaxEntries: entries, ValueBits: valueBits})
	return b
}

// LRUMap declares an LRU-evicting flow cache map.
func (b *ProgramBuilder) LRUMap(name string, maxEntries, valueBits int) *ProgramBuilder {
	b.p.Maps = append(b.p.Maps, &MapSpec{Name: name, Kind: MapLRU, MaxEntries: maxEntries, ValueBits: valueBits})
	return b
}

// SharedMap marks the most recently declared map as shared (must migrate
// with the program).
func (b *ProgramBuilder) SharedMap() *ProgramBuilder {
	if n := len(b.p.Maps); n > 0 {
		b.p.Maps[n-1].Shared = true
	} else if b.err == nil {
		b.err = fmt.Errorf("flexbpf: SharedMap with no maps declared")
	}
	return b
}

// Counter declares a counter array.
func (b *ProgramBuilder) Counter(name string, size int) *ProgramBuilder {
	b.p.Counters = append(b.p.Counters, &CounterSpec{Name: name, Size: size})
	return b
}

// Meter declares a meter array.
func (b *ProgramBuilder) Meter(name string, size int, cir, pir, cbs, pbs uint64) *ProgramBuilder {
	b.p.Meters = append(b.p.Meters, &MeterSpec{Name: name, Size: size, CIR: cir, PIR: pir, CBS: cbs, PBS: pbs})
	return b
}

// Action declares a named action with the given parameter count and body.
func (b *ProgramBuilder) Action(name string, numParams int, body []Instr) *ProgramBuilder {
	if _, dup := b.p.Actions[name]; dup && b.err == nil {
		b.err = fmt.Errorf("flexbpf: duplicate action %q", name)
	}
	b.p.Actions[name] = &Action{Name: name, NumParams: numParams, Body: body}
	return b
}

// Table declares a table.
func (b *ProgramBuilder) Table(t *TableSpec) *ProgramBuilder {
	b.p.Tables = append(b.p.Tables, t)
	return b
}

// Apply appends a table application to the pipeline.
func (b *ProgramBuilder) Apply(table string) *ProgramBuilder {
	b.p.Pipeline = append(b.p.Pipeline, Stmt{Apply: table})
	return b
}

// Do appends an inline instruction block to the pipeline.
func (b *ProgramBuilder) Do(code []Instr) *ProgramBuilder {
	b.p.Pipeline = append(b.p.Pipeline, Stmt{Do: code})
	return b
}

// If appends a conditional to the pipeline.
func (b *ProgramBuilder) If(cond Cond, then, els []Stmt) *ProgramBuilder {
	b.p.Pipeline = append(b.p.Pipeline, Stmt{If: &IfStmt{Cond: cond, Then: then, Else: els}})
	return b
}

// Build verifies and returns the program.
func (b *ProgramBuilder) Build() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := Verify(b.p); err != nil {
		return nil, err
	}
	return b.p, nil
}

// MustBuild is Build that panics on error.
func (b *ProgramBuilder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// Statement constructors for If branches.

// SDo builds an inline block statement.
func SDo(code []Instr) Stmt { return Stmt{Do: code} }
