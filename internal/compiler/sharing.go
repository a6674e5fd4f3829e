package compiler

import (
	"slices"

	"flexnet/internal/flexbpf"
)

// Fingerprint computes a structural hash of a program that ignores its
// name: two tenants submitting the same extension (§3.2
// "different tenants may inject logically-sharable code that present
// optimization opportunities") produce equal fingerprints even though
// their programs are distinct objects.
//
// The hash walks the IR itself — maps, counters, meters, tables (keys
// with their widths, actions, default action and parameters), actions
// in name order with every field of every instruction, and the pipeline
// with its conditions and inline blocks — so it renders no text. Apps
// prefix their elements with the program name, so inside every name
// the hash reads each occurrence of the program name followed by '_'
// or '.' as one placeholder: the same app built under two segment names
// fingerprints equal. RequiredHeaders and Requires are derived charges,
// not structure, and are left out, as Name is.
func Fingerprint(p *flexbpf.Program) uint64 {
	h := fpHash{sum: fpOffset, prog: p.Name}
	h.word(uint64(len(p.Maps)))
	for _, m := range p.Maps {
		h.name(m.Name)
		h.word(uint64(m.Kind))
		h.int(m.MaxEntries)
		h.int(m.ValueBits)
		h.bool(m.Shared)
	}
	h.word(uint64(len(p.Counters)))
	for _, c := range p.Counters {
		h.name(c.Name)
		h.int(c.Size)
	}
	h.word(uint64(len(p.Meters)))
	for _, m := range p.Meters {
		h.name(m.Name)
		h.int(m.Size)
		h.word(m.CIR)
		h.word(m.PIR)
		h.word(m.CBS)
		h.word(m.PBS)
	}
	h.word(uint64(len(p.Tables)))
	for _, t := range p.Tables {
		h.name(t.Name)
		h.word(uint64(len(t.Keys)))
		for _, k := range t.Keys {
			h.name(k.Field)
			h.word(uint64(k.Kind))
			h.int(k.Bits)
		}
		h.word(uint64(len(t.Actions)))
		for _, a := range t.Actions {
			h.name(a)
		}
		h.name(t.DefaultAction)
		h.word(uint64(len(t.DefaultParams)))
		for _, v := range t.DefaultParams {
			h.word(v)
		}
		h.int(t.Size)
	}
	var buf [16]string
	names := buf[:0]
	for n := range p.Actions {
		names = append(names, n)
	}
	slices.Sort(names)
	h.word(uint64(len(names)))
	for _, n := range names {
		a := p.Actions[n]
		h.name(a.Name)
		h.int(a.NumParams)
		h.block(a.Body)
	}
	h.stmts(p.Pipeline)
	return h.sum
}

const (
	fpOffset = 14695981039346656037
	fpPrime  = 1099511628211
)

// fpHash is an FNV-1a-style accumulator. Each step maps the running
// sum through (sum ^ v) * prime, a bijection for every v, so two walks
// that differ in one word never meet again.
type fpHash struct {
	sum  uint64
	prog string
}

func (h *fpHash) word(v uint64) { h.sum = (h.sum ^ v) * fpPrime }

func (h *fpHash) int(v int) { h.word(uint64(v)) }

func (h *fpHash) bool(v bool) {
	if v {
		h.word(1)
	} else {
		h.word(0)
	}
}

// name hashes s byte by byte with every occurrence of the program name
// followed by '_' or '.' read as a placeholder, then the length of what
// it hashed, which keeps adjacent names apart.
func (h *fpHash) name(s string) {
	n := len(h.prog)
	var emitted uint64
	for i := 0; i < len(s); {
		if n > 0 && i+n < len(s) && s[i:i+n] == h.prog && (s[i+n] == '_' || s[i+n] == '.') {
			h.word(0x100) // no byte value: the placeholder
			h.word(uint64(s[i+n]))
			i += n + 1
			emitted += 2
			continue
		}
		h.word(uint64(s[i]))
		i++
		emitted++
	}
	h.word(0x200 | emitted<<16)
}

func (h *fpHash) block(code []flexbpf.Instr) {
	h.word(uint64(len(code)))
	for i := range code {
		in := &code[i]
		h.word(uint64(in.Op) | uint64(in.Rd)<<8 | uint64(in.Rs)<<16 | uint64(in.Rt)<<24 | uint64(uint32(in.Off))<<32)
		h.word(in.Imm)
		h.name(in.Sym)
	}
}

func (h *fpHash) stmts(stmts []flexbpf.Stmt) {
	h.word(uint64(len(stmts)))
	for i := range stmts {
		s := &stmts[i]
		h.name(s.Apply)
		if c := s.If; c != nil {
			h.word(1)
			h.name(c.Cond.Field)
			h.word(uint64(c.Cond.Op))
			h.word(c.Cond.Value)
			h.stmts(c.Then)
			h.stmts(c.Else)
		} else {
			h.word(0)
		}
		if s.Do != nil {
			h.word(1)
			h.block(s.Do)
		} else {
			h.word(0)
		}
	}
}
