// Package flexbpf implements the FlexBPF domain-specific language from the
// FlexNet paper (§3.1): a constrained program representation that mixes
// match/action-style packet processing with eBPF-style general computation
// over logical key/value maps.
//
// A FlexBPF program consists of:
//
//   - Map specs: logical key/value state. Maps virtualize device state —
//     the same logical map may be realized as P4 registers, PoF flow
//     instructions, or Spectrum-style stateful tables on different
//     targets; the compiler picks the encoding (§3.1 "state encodings").
//   - Table specs: match/action tables with exact, LPM, or ternary keys.
//   - Actions: short, verified instruction sequences bound to tables.
//   - A control pipeline: ordered statements (table applies, conditionals,
//     inline instruction blocks).
//
// Programs are *analyzable by construction*: jumps are forward-only, so
// every program certifies bounded per-packet execution (§3.1
// "analyzable to certify bounded execution"). The Verifier enforces this
// together with register initialization and reference integrity.
//
// DESIGN.md §2 (S5) and §4 record the language design and its decisions.
package flexbpf

import (
	"fmt"
	"strings"
)

// Reg is a virtual register index. FlexBPF exposes NumRegs general
// registers r0..r15.
type Reg = uint8

// NumRegs is the number of general-purpose registers.
const NumRegs = 16

// MaxInstrs bounds the length of any single instruction block; the
// verifier rejects longer blocks. Bounded blocks plus forward-only jumps
// give a hard per-packet instruction bound.
const MaxInstrs = 4096

// PacketBudget is the most counted instructions one packet may run
// through one program. Verify refuses a program whose WorstCaseInstrs
// exceeds it. The linked executor has no run-time stop: a linked program
// cannot loop, so the verified bound holds. Only the reference Interp
// stops a packet that reaches the budget.
const PacketBudget = MaxInstrs * 4

// MapKind selects the logical behaviour of a key/value map.
type MapKind uint8

const (
	// MapArray is a dense array indexed 0..MaxEntries-1 (register file).
	MapArray MapKind = iota
	// MapHash is a sparse hash map; inserts fail when it is full.
	MapHash
	// MapLRU is a hash map that evicts the least recently used entry
	// when full rather than failing inserts (flow caches).
	MapLRU
)

func (k MapKind) String() string {
	switch k {
	case MapArray:
		return "array"
	case MapHash:
		return "hash"
	case MapLRU:
		return "lru"
	default:
		return fmt.Sprintf("mapkind(%d)", uint8(k))
	}
}

// MapSpec declares a logical key/value map.
type MapSpec struct {
	Name       string
	Kind       MapKind
	MaxEntries int
	// ValueBits is the logical value width (≤64).
	ValueBits int
	// Shared marks maps that must remain globally consistent when the
	// program is replicated or migrated (e.g. a count-min sketch), as
	// opposed to per-instance scratch state.
	Shared bool
}

// MatchKind is how a table key field is matched.
type MatchKind uint8

const (
	// MatchExact requires equality (SRAM/hash-table realizable).
	MatchExact MatchKind = iota
	// MatchLPM is longest-prefix match (TCAM or algorithmic).
	MatchLPM
	// MatchTernary is value/mask match (TCAM).
	MatchTernary
	// MatchRange matches lo ≤ value ≤ hi (TCAM with range expansion).
	MatchRange
)

func (k MatchKind) String() string {
	switch k {
	case MatchExact:
		return "exact"
	case MatchLPM:
		return "lpm"
	case MatchTernary:
		return "ternary"
	case MatchRange:
		return "range"
	default:
		return fmt.Sprintf("matchkind(%d)", uint8(k))
	}
}

// NeedsTCAM reports whether the match kind requires ternary memory.
func (k MatchKind) NeedsTCAM() bool { return k != MatchExact }

// TableKey is one component of a table's match key.
type TableKey struct {
	// Field is the packet field matched ("ipv4.dst").
	Field string
	Kind  MatchKind
	// Bits is the key width; 0 means the header field's natural width.
	Bits int
}

// TableSpec declares a match/action table.
type TableSpec struct {
	Name string
	Keys []TableKey
	// Actions is the set of action names entries may invoke.
	Actions []string
	// DefaultAction runs on miss ("" = no-op).
	DefaultAction string
	// DefaultParams are bound when the default action runs.
	DefaultParams []uint64
	// Size is the maximum number of entries, used for resource sizing.
	Size int
}

// HasAction reports whether the table permits the named action.
func (t *TableSpec) HasAction(name string) bool {
	for _, a := range t.Actions {
		if a == name {
			return true
		}
	}
	return false
}

// Action is a named, verified instruction sequence. Actions receive
// per-entry parameters (action data) accessible via OpLdParam.
type Action struct {
	Name string
	// NumParams is how many action-data parameters entries must supply.
	NumParams int
	Body      []Instr
}

// Op is a FlexBPF opcode.
type Op uint8

// Opcodes. Register operands are Rd (destination), Rs, Rt (sources);
// Imm is an immediate; Sym names a map/counter/meter/field/header;
// Off is a forward jump offset in instructions (relative to the next
// instruction, so Off=0 is a no-op jump).
const (
	// OpMovImm: rd = imm.
	OpMovImm Op = iota
	// OpMov: rd = rs.
	OpMov
	// OpLdField: rd = pkt[Sym] (0 if field absent).
	OpLdField
	// OpHasField: rd = 1 if field Sym present, else 0.
	OpHasField
	// OpStField: pkt[Sym] = rs.
	OpStField
	// OpAddHdr: mark header Sym present.
	OpAddHdr
	// OpLdParam: rd = actionParams[Imm].
	OpLdParam

	// ALU: rd = rd OP rs.
	OpAdd
	OpMod // rs==0 yields 0 (hardware-style saturate)
	OpOr
	OpXor
	OpMin
	// ALU immediate forms: rd = rd OP imm.
	OpAddImm
	OpSubImm
	OpAndImm
	OpXorImm
	OpShlImm

	// OpMapLoad: rd = map[Sym][rs] (0 if absent).
	OpMapLoad
	// OpMapHas: rd = 1 if key rs present in map Sym.
	OpMapHas
	// OpMapStore: map[Sym][rs] = rt.
	OpMapStore

	// OpHash: rd = fnv64(rs).
	OpHash
	// OpFlowHash: rd = hash of the packet 5-tuple.
	OpFlowHash
	// OpNow: rd = current time in nanoseconds.
	OpNow
	// OpPktLen: rd = packet length in bytes.
	OpPktLen

	// OpCount: counter Sym index rs += rt (use a reg holding 1 or pktlen).
	OpCount
	// OpMeterExec: rd = color of meter Sym index rs charged rt bytes
	// (0 green, 1 yellow, 2 red).
	OpMeterExec

	// Control flow (forward-only).
	OpJmp // pc += Off
	// Register-immediate conditionals: if rs CMP imm { pc += Off }. The
	// linker's load-and-branch fusion tests the range OpJEqImm..OpJLeImm,
	// so these four stay contiguous.
	OpJEqImm
	OpJLtImm
	OpJGtImm
	OpJLeImm

	// Verdicts (terminate the block and usually the pipeline).
	// OpDrop drops the packet.
	OpDrop
	// OpForward forwards via egress port rs.
	OpForward
	// OpPunt sends the packet to the controller.
	OpPunt
	// OpRet ends the block without a terminal verdict.
	OpRet

	opMax // sentinel
)

// Instr is a single FlexBPF instruction.
type Instr struct {
	Op  Op
	Rd  Reg
	Rs  Reg
	Rt  Reg
	Imm uint64
	Sym string
	Off int32
}

// Stmt is one node of a program's control pipeline.
type Stmt struct {
	// Exactly one of the following is set.

	// Apply applies the named table.
	Apply string
	// If is a guarded sub-pipeline.
	If *IfStmt
	// Do is an inline instruction block.
	Do []Instr
}

// IfStmt guards Then/Else sub-pipelines with a field comparison.
type IfStmt struct {
	Cond Cond
	Then []Stmt
	Else []Stmt
}

// CmpOp is a comparison operator for conditions.
type CmpOp uint8

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpGe
)

func (c CmpOp) String() string {
	switch c {
	case CmpEq:
		return "=="
	case CmpGe:
		return ">="
	default:
		return fmt.Sprintf("cmp(%d)", uint8(c))
	}
}

// Cond compares a packet field against a constant.
type Cond struct {
	Field string
	Op    CmpOp
	Value uint64
}

// CounterSpec declares an indexed packet/byte counter.
type CounterSpec struct {
	Name string
	Size int
}

// MeterSpec declares a two-rate three-color meter array.
type MeterSpec struct {
	Name string
	Size int
	// CIR and PIR are committed/peak information rates in bytes/sec.
	CIR, PIR uint64
	// CBS and PBS are burst sizes in bytes.
	CBS, PBS uint64
}

// Program is a complete FlexBPF program unit: the atom of placement.
// Tables within one Program are co-located on a device; a logical
// datapath is an ordered sequence of Programs (see Datapath).
type Program struct {
	Name string

	Maps     []*MapSpec
	Tables   []*TableSpec
	Counters []*CounterSpec
	Meters   []*MeterSpec
	Actions  map[string]*Action

	// Pipeline is the control flow applied to each packet.
	Pipeline []Stmt

	// RequiredHeaders lists headers the program reads or writes. It is a
	// resource charge only — one parser state per header against the
	// device's parser budget — not a parser requirement: every device
	// parses with the one fixed standard graph.
	RequiredHeaders []string

	// Requires declares capabilities the hosting device must provide.
	Requires Capabilities
}

// Capabilities a program demands of its target (and devices advertise).
type Capabilities struct {
	// TCAM: ternary/LPM/range matching in hardware.
	TCAM bool
	// PerFlowState: stateful per-flow storage mutated at line rate.
	PerFlowState bool
	// GeneralCompute: unrestricted ALU chains (hosts/NICs/FPGAs).
	GeneralCompute bool
	// Transport: access to transport-layer events (hosts, some NICs) —
	// required by congestion-control components.
	Transport bool
}

// Satisfies reports whether capability set have covers need.
func (have Capabilities) Satisfies(need Capabilities) bool {
	if need.TCAM && !have.TCAM {
		return false
	}
	if need.PerFlowState && !have.PerFlowState {
		return false
	}
	if need.GeneralCompute && !have.GeneralCompute {
		return false
	}
	if need.Transport && !have.Transport {
		return false
	}
	return true
}

// Map returns the named map spec, or nil.
func (p *Program) Map(name string) *MapSpec {
	for _, m := range p.Maps {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// Table returns the named table spec, or nil.
func (p *Program) Table(name string) *TableSpec {
	for _, t := range p.Tables {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// Counter returns the named counter spec, or nil.
func (p *Program) Counter(name string) *CounterSpec {
	for _, c := range p.Counters {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Meter returns the named meter spec, or nil.
func (p *Program) Meter(name string) *MeterSpec {
	for _, m := range p.Meters {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// Clone deep-copies the program. Compiler passes transform clones so the
// source program a tenant submitted is never mutated.
func (p *Program) Clone() *Program {
	q := &Program{
		Name:            p.Name,
		Requires:        p.Requires,
		RequiredHeaders: append([]string(nil), p.RequiredHeaders...),
		Actions:         make(map[string]*Action, len(p.Actions)),
	}
	for _, m := range p.Maps {
		mc := *m
		q.Maps = append(q.Maps, &mc)
	}
	for _, t := range p.Tables {
		tc := *t
		tc.Keys = append([]TableKey(nil), t.Keys...)
		tc.Actions = append([]string(nil), t.Actions...)
		tc.DefaultParams = append([]uint64(nil), t.DefaultParams...)
		q.Tables = append(q.Tables, &tc)
	}
	for _, c := range p.Counters {
		cc := *c
		q.Counters = append(q.Counters, &cc)
	}
	for _, m := range p.Meters {
		mc := *m
		q.Meters = append(q.Meters, &mc)
	}
	for name, a := range p.Actions {
		ac := &Action{Name: a.Name, NumParams: a.NumParams, Body: append([]Instr(nil), a.Body...)}
		q.Actions[name] = ac
	}
	q.Pipeline = cloneStmts(p.Pipeline)
	return q
}

// Guard returns p with its whole pipeline behind one leading If on c: a
// packet that fails c runs nothing of p. It is how a device lowers an
// install filter into the program the filter guards. The copy is
// shallow — it shares p's declarations and statements — and p is not
// modified.
func Guard(p *Program, c Cond) *Program {
	q := *p
	q.Pipeline = []Stmt{{If: &IfStmt{Cond: c, Then: p.Pipeline}}}
	return &q
}

func cloneStmts(in []Stmt) []Stmt {
	if in == nil {
		return nil
	}
	out := make([]Stmt, len(in))
	for i, s := range in {
		out[i] = Stmt{Apply: s.Apply, Do: append([]Instr(nil), s.Do...)}
		if s.If != nil {
			out[i].If = &IfStmt{
				Cond: s.If.Cond,
				Then: cloneStmts(s.If.Then),
				Else: cloneStmts(s.If.Else),
			}
		}
		if s.Do == nil {
			out[i].Do = nil
		}
	}
	return out
}

// walkStmts visits every statement in the pipeline, depth-first.
func walkStmts(stmts []Stmt, fn func(*Stmt)) {
	for i := range stmts {
		fn(&stmts[i])
		if stmts[i].If != nil {
			walkStmts(stmts[i].If.Then, fn)
			walkStmts(stmts[i].If.Else, fn)
		}
	}
}

// AppliedTables returns the names of tables applied anywhere in the
// pipeline, in first-application order.
func (p *Program) AppliedTables() []string {
	var out []string
	seen := map[string]bool{}
	walkStmts(p.Pipeline, func(s *Stmt) {
		if s.Apply != "" && !seen[s.Apply] {
			seen[s.Apply] = true
			out = append(out, s.Apply)
		}
	})
	return out
}

// TableDependencies returns ordered pairs (a, b) meaning table a is
// applied before table b on some control path. The RMT placement uses
// this to order tables across pipeline stages.
func (p *Program) TableDependencies() [][2]string {
	var pairs [][2]string
	seen := map[[2]string]bool{}
	var walk func(stmts []Stmt, before []string) []string
	walk = func(stmts []Stmt, before []string) []string {
		cur := before
		for i := range stmts {
			s := &stmts[i]
			if s.Apply != "" {
				for _, b := range cur {
					key := [2]string{b, s.Apply}
					if !seen[key] && b != s.Apply {
						seen[key] = true
						pairs = append(pairs, key)
					}
				}
				cur = append(append([]string(nil), cur...), s.Apply)
			}
			if s.If != nil {
				t := walk(s.If.Then, cur)
				e := walk(s.If.Else, cur)
				// After the if, both branches' tables precede what follows.
				merged := append(append([]string(nil), t...), e...)
				cur = merged
			}
		}
		return cur
	}
	walk(p.Pipeline, nil)
	return pairs
}

// String renders a summary of the program.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s: %d maps, %d tables, %d actions, %d pipeline stmts",
		p.Name, len(p.Maps), len(p.Tables), len(p.Actions), len(p.Pipeline))
	return b.String()
}

// Datapath is a logical end-to-end datapath: an ordered chain of program
// segments. The paper's "fungible datapath" (§3.1): the compiler decides
// which physical device hosts each segment, and segments can migrate at
// runtime while keeping their logical state.
type Datapath struct {
	Name string
	// Owner is the tenant owning this datapath ("" = infrastructure).
	Owner string
	// Segments run in order over each packet of the datapath's slice.
	Segments []*Program
	// SLA constrains the compiler's placement choices.
	SLA SLA
}

// SLA captures the negotiated service level for a datapath (§3.3
// "our compiler must take performance SLA into consideration").
type SLA struct {
	// MaxLatencyNs bounds added processing latency per packet (0 = none).
	MaxLatencyNs uint64
	// MinThroughputPPS is the packet rate the placement must sustain.
	MinThroughputPPS uint64
}

// Segment returns the named segment, or nil.
func (d *Datapath) Segment(name string) *Program {
	for _, s := range d.Segments {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Clone deep-copies the datapath.
func (d *Datapath) Clone() *Datapath {
	q := &Datapath{Name: d.Name, Owner: d.Owner, SLA: d.SLA}
	for _, s := range d.Segments {
		q.Segments = append(q.Segments, s.Clone())
	}
	return q
}
