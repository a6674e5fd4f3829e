// Package delta implements FlexNet's incremental-change DSL (§3.2
// "Programming runtime changes"): a small language for specifying
// *changes* to an existing FlexBPF program without re-specifying the
// whole stack.
//
// A Delta is a named list of operations. Operations select elements of
// the base program by name patterns ("pattern matches on match/action
// tables and actions to programmatically select and modify the
// firewall- or CC-related functions in the base program") and add,
// remove, or rewrite them. Apply "jointly analyzes the pattern matching
// program with the base program and regenerates program changes exactly
// where needed": the result is a fresh verified program, and the
// application reports exactly which elements were touched so the
// runtime can plan a minimally intrusive reconfiguration.
//
// DESIGN.md §2 (S6) inventories the DSL; applied deltas flow through the §5 change pipeline.
package delta

import (
	"fmt"

	"flexnet/internal/flexbpf"
)

// Pattern is a glob-style name pattern: '*' matches any run of
// characters; matching is anchored at both ends. "acl_*" matches
// "acl_v4" but not "my_acl_v4".
type Pattern string

// Match reports whether the pattern matches name.
func (p Pattern) Match(name string) bool {
	return globMatch(string(p), name)
}

func globMatch(pat, s string) bool {
	// Iterative glob with '*' only.
	var backtrackPat, backtrackS = -1, -1
	pi, si := 0, 0
	for si < len(s) {
		switch {
		case pi < len(pat) && pat[pi] == '*':
			backtrackPat = pi
			backtrackS = si
			pi++
		case pi < len(pat) && pat[pi] == s[si]:
			pi++
			si++
		case backtrackPat >= 0:
			backtrackS++
			si = backtrackS
			pi = backtrackPat + 1
		default:
			return false
		}
	}
	for pi < len(pat) && pat[pi] == '*' {
		pi++
	}
	return pi == len(pat)
}

// Where anchors statement insertion.
type Where uint8

// Insertion anchors.
const (
	// AtStart prepends to the pipeline.
	AtStart Where = iota
	// AtEnd appends to the pipeline.
	AtEnd
	// BeforeTable inserts before the first apply of the anchor table.
	BeforeTable
	// AfterTable inserts after the first apply of the anchor table.
	AfterTable
)

// Op is one incremental operation. Exactly one field group is used.
type Op struct {
	// AddTable declares a new table (with its actions in AddActions).
	AddTable *flexbpf.TableSpec
	// AddActions declares new actions (standalone or for AddTable).
	AddActions []*flexbpf.Action
	// AddMap declares a new map.
	AddMap *flexbpf.MapSpec
	// AddCounter declares a new counter.
	AddCounter *flexbpf.CounterSpec

	// RemoveTables removes all tables matching the pattern, including
	// their pipeline applies.
	RemoveTables Pattern
	// RemoveMaps removes all maps matching the pattern.
	RemoveMaps Pattern
	// RemoveActions removes matching actions (must be unreferenced
	// after table removals).
	RemoveActions Pattern

	// ReplaceAction rewrites the body of all actions matching the
	// pattern (arity must be preserved).
	ReplaceAction Pattern
	NewBody       []flexbpf.Instr
	// ResizeTables sets a new size on matching tables.
	ResizeTables Pattern
	NewSize      int

	// InsertStmt splices a pipeline statement at an anchor.
	InsertStmt  *flexbpf.Stmt
	InsertWhere Where
	// Anchor names the table for BeforeTable/AfterTable.
	Anchor string
}

// Delta is a named incremental change to a base program.
type Delta struct {
	Name string
	Ops  []Op
}

// Report lists exactly which base-program elements an application
// touched, so the runtime engine can compile a minimally intrusive
// change (§3.3 "incremental recompilation").
type Report struct {
	TablesAdded    []string
	TablesRemoved  []string
	TablesResized  []string
	ActionsAdded   []string
	ActionsRemoved []string
	ActionsEdited  []string
	MapsAdded      []string
	MapsRemoved    []string
	StmtsInserted  int
}

// Apply executes the delta against base and returns a fresh verified
// program plus the touch report. The base program is never mutated.
func Apply(base *flexbpf.Program, d *Delta) (*flexbpf.Program, *Report, error) {
	out := base.Clone()
	rep := &Report{}
	for i := range d.Ops {
		if err := applyOp(out, &d.Ops[i], rep); err != nil {
			return nil, nil, fmt.Errorf("delta %s op %d: %w", d.Name, i, err)
		}
	}
	if err := flexbpf.Verify(out); err != nil {
		return nil, nil, fmt.Errorf("delta %s: result does not verify: %w", d.Name, err)
	}
	return out, rep, nil
}

func applyOp(p *flexbpf.Program, op *Op, rep *Report) error {
	switch {
	case op.AddTable != nil || len(op.AddActions) > 0 || op.AddMap != nil || op.AddCounter != nil:
		for _, a := range op.AddActions {
			if _, dup := p.Actions[a.Name]; dup {
				return fmt.Errorf("action %q already exists", a.Name)
			}
			p.Actions[a.Name] = a
			rep.ActionsAdded = append(rep.ActionsAdded, a.Name)
		}
		if op.AddMap != nil {
			if p.Map(op.AddMap.Name) != nil {
				return fmt.Errorf("map %q already exists", op.AddMap.Name)
			}
			p.Maps = append(p.Maps, op.AddMap)
			rep.MapsAdded = append(rep.MapsAdded, op.AddMap.Name)
		}
		if op.AddCounter != nil {
			if p.Counter(op.AddCounter.Name) != nil {
				return fmt.Errorf("counter %q already exists", op.AddCounter.Name)
			}
			p.Counters = append(p.Counters, op.AddCounter)
		}
		if op.AddTable != nil {
			if p.Table(op.AddTable.Name) != nil {
				return fmt.Errorf("table %q already exists", op.AddTable.Name)
			}
			p.Tables = append(p.Tables, op.AddTable)
			rep.TablesAdded = append(rep.TablesAdded, op.AddTable.Name)
		}
		return nil

	case op.RemoveTables != "":
		var kept []*flexbpf.TableSpec
		removed := map[string]bool{}
		for _, t := range p.Tables {
			if op.RemoveTables.Match(t.Name) {
				removed[t.Name] = true
				rep.TablesRemoved = append(rep.TablesRemoved, t.Name)
			} else {
				kept = append(kept, t)
			}
		}
		if len(removed) == 0 {
			return fmt.Errorf("pattern %q matches no tables", op.RemoveTables)
		}
		p.Tables = kept
		p.Pipeline = removeApplies(p.Pipeline, removed)
		return nil

	case op.RemoveMaps != "":
		var kept []*flexbpf.MapSpec
		n := 0
		for _, m := range p.Maps {
			if op.RemoveMaps.Match(m.Name) {
				rep.MapsRemoved = append(rep.MapsRemoved, m.Name)
				n++
			} else {
				kept = append(kept, m)
			}
		}
		if n == 0 {
			return fmt.Errorf("pattern %q matches no maps", op.RemoveMaps)
		}
		p.Maps = kept
		return nil

	case op.RemoveActions != "":
		n := 0
		for name := range p.Actions {
			if op.RemoveActions.Match(name) {
				delete(p.Actions, name)
				rep.ActionsRemoved = append(rep.ActionsRemoved, name)
				n++
			}
		}
		if n == 0 {
			return fmt.Errorf("pattern %q matches no actions", op.RemoveActions)
		}
		return nil

	case op.ReplaceAction != "":
		n := 0
		for name, a := range p.Actions {
			if op.ReplaceAction.Match(name) {
				a.Body = append([]flexbpf.Instr(nil), op.NewBody...)
				rep.ActionsEdited = append(rep.ActionsEdited, name)
				n++
			}
		}
		if n == 0 {
			return fmt.Errorf("pattern %q matches no actions", op.ReplaceAction)
		}
		return nil

	case op.ResizeTables != "":
		n := 0
		for _, t := range p.Tables {
			if op.ResizeTables.Match(t.Name) {
				t.Size = op.NewSize
				rep.TablesResized = append(rep.TablesResized, t.Name)
				n++
			}
		}
		if n == 0 {
			return fmt.Errorf("pattern %q matches no tables", op.ResizeTables)
		}
		return nil

	case op.InsertStmt != nil:
		rep.StmtsInserted++
		switch op.InsertWhere {
		case AtStart:
			p.Pipeline = append([]flexbpf.Stmt{*op.InsertStmt}, p.Pipeline...)
			return nil
		case AtEnd:
			p.Pipeline = append(p.Pipeline, *op.InsertStmt)
			return nil
		case BeforeTable, AfterTable:
			idx := -1
			for i := range p.Pipeline {
				if p.Pipeline[i].Apply == op.Anchor {
					idx = i
					break
				}
			}
			if idx < 0 {
				return fmt.Errorf("anchor table %q not applied at top level", op.Anchor)
			}
			if op.InsertWhere == AfterTable {
				idx++
			}
			p.Pipeline = append(p.Pipeline[:idx],
				append([]flexbpf.Stmt{*op.InsertStmt}, p.Pipeline[idx:]...)...)
			return nil
		default:
			return fmt.Errorf("unknown insertion anchor %d", op.InsertWhere)
		}

	default:
		return fmt.Errorf("empty delta operation")
	}
}

func removeApplies(stmts []flexbpf.Stmt, removed map[string]bool) []flexbpf.Stmt {
	var out []flexbpf.Stmt
	for _, s := range stmts {
		if s.Apply != "" && removed[s.Apply] {
			continue
		}
		if s.If != nil {
			s.If.Then = removeApplies(s.If.Then, removed)
			s.If.Else = removeApplies(s.If.Else, removed)
		}
		out = append(out, s)
	}
	return out
}
