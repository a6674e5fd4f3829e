package compiler

import (
	"strings"

	"flexnet/internal/flexbpf"
)

// Fingerprint computes a structural hash of a program that ignores its
// name and owner: two tenants submitting the same extension (§3.2
// "different tenants may inject logically-sharable code that present
// optimization opportunities") produce equal fingerprints even though
// their programs are distinct objects.
func Fingerprint(p *flexbpf.Program) uint64 {
	// Canonicalize: dump the program and strip the identity line, then
	// normalize any occurrence of the program name inside element names
	// (apps conventionally prefix their elements with the program name).
	dump := flexbpf.Dump(p)
	lines := strings.Split(dump, "\n")
	if len(lines) > 0 {
		lines = lines[1:] // drop "program <name> (tenant ...)"
	}
	// Dump summarizes inline Do blocks as "{N instrs}"; append their
	// full disassembly so compute differences change the fingerprint.
	var blocks strings.Builder
	var walk func(stmts []flexbpf.Stmt)
	walk = func(stmts []flexbpf.Stmt) {
		for _, s := range stmts {
			if s.Do != nil {
				blocks.WriteString(flexbpf.Disasm(s.Do))
			}
			if s.If != nil {
				walk(s.If.Then)
				walk(s.If.Else)
			}
		}
	}
	walk(p.Pipeline)
	canon := strings.Join(lines, "\n") + blocks.String()
	if p.Name != "" {
		canon = strings.ReplaceAll(canon, p.Name+"_", "§_")
		canon = strings.ReplaceAll(canon, p.Name+".", "§.")
	}
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(canon); i++ {
		h ^= uint64(canon[i])
		h *= prime
	}
	return h
}
