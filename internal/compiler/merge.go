package compiler

import (
	"fmt"

	"flexnet/internal/flexbpf"
)

// MergeStats quantifies a table merge's cost/benefit (§3.3: "Merging two
// match/action tables ... will lead to increased memory usage due to a
// table 'cross product', but it saves one table lookup time and reduces
// latency for packet processing").
type MergeStats struct {
	MemBeforeBits int
	MemAfterBits  int
	// MemFactor = after/before.
	MemFactor float64
	// TCAMBefore/TCAMAfter: merging moves exact tables into ternary
	// memory, so the cost is paid in the scarcest resource.
	TCAMBeforeBits int
	TCAMAfterBits  int
	// LookupsSaved per packet.
	LookupsSaved int
	// LatencySavedNs per packet on the given per-lookup latency.
	LatencySavedNs uint64
}

// Merge is the result of merging two tables: the transformed program
// and what the merge costs and saves.
type Merge struct {
	Program *flexbpf.Program
	Stats   MergeStats
}

const noopAction = "_noop"

// MergeTables merges two tables applied back-to-back at the top level of
// prog's pipeline into one cross-product table. It returns a transformed
// clone (the input program is untouched).
//
// Semantics are preserved exactly, including partial-hit combinations:
// the merged table is ternary, with wildcarded entries covering
// "t1 hits, t2 misses" and vice versa. This is why the merge costs
// memory — and specifically TCAM — as the paper notes.
//
// The merge is refused when it cannot be done soundly: t1's actions must
// not write fields t2 matches on; both tables' applications must be
// unconditional; keys must be exact or ternary (LPM/range cross products
// are not expressible without prefix expansion).
func MergeTables(prog *flexbpf.Program, t1Name, t2Name string, perLookupNs uint64) (*Merge, error) {
	t1 := prog.Table(t1Name)
	t2 := prog.Table(t2Name)
	if t1 == nil || t2 == nil {
		return nil, fmt.Errorf("compiler: merge: table not found")
	}
	pos := -1
	for i := 0; i+1 < len(prog.Pipeline); i++ {
		if prog.Pipeline[i].Apply == t1Name && prog.Pipeline[i+1].Apply == t2Name {
			pos = i
			break
		}
	}
	if pos < 0 {
		return nil, fmt.Errorf("compiler: merge: %s and %s are not applied consecutively", t1Name, t2Name)
	}
	for _, t := range []*flexbpf.TableSpec{t1, t2} {
		for _, k := range t.Keys {
			if k.Kind == flexbpf.MatchLPM || k.Kind == flexbpf.MatchRange {
				return nil, fmt.Errorf("compiler: merge: table %s key %s: %v keys cannot be cross-producted", t.Name, k.Field, k.Kind)
			}
		}
	}
	// Hazard check: t1 actions must not write t2 key fields.
	t2keys := map[string]bool{}
	for _, k := range t2.Keys {
		t2keys[k.Field] = true
	}
	for _, aname := range actionsOf(t1) {
		a := prog.Actions[aname]
		if a == nil {
			continue
		}
		for _, ins := range a.Body {
			if ins.Op == flexbpf.OpStField && t2keys[ins.Sym] {
				return nil, fmt.Errorf("compiler: merge: action %s writes %s, matched by %s", aname, ins.Sym, t2Name)
			}
		}
	}

	out := prog.Clone()
	ot1 := out.Table(t1Name)
	ot2 := out.Table(t2Name)

	// Ensure a no-op action exists for missing defaults.
	if _, ok := out.Actions[noopAction]; !ok {
		out.Actions[noopAction] = &flexbpf.Action{Name: noopAction, Body: []flexbpf.Instr{{Op: flexbpf.OpRet}}}
	}
	d1 := ot1.DefaultAction
	if d1 == "" {
		d1 = noopAction
	}
	d2 := ot2.DefaultAction
	if d2 == "" {
		d2 = noopAction
	}

	mergedName := t1Name + "+" + t2Name
	merged := &flexbpf.TableSpec{
		Name: mergedName,
		// Cross-product entries need wildcards: all keys become ternary.
		Keys: ternaryKeys(append(append([]flexbpf.TableKey(nil), ot1.Keys...), ot2.Keys...)),
		// Size: every (e1, e2) pair plus partial-hit rows.
		Size: ot1.Size*ot2.Size + ot1.Size + ot2.Size,
	}

	// Composite actions for hit×hit, hit×default, default×hit; the
	// default×default pair becomes the merged table's default action.
	a1s := append(actionsOf(ot1), d1)
	a2s := append(actionsOf(ot2), d2)
	seen := map[string]bool{}
	addComposite := func(n1, n2 string) (string, error) {
		comp, err := composeActions(out, n1, n2)
		if err != nil {
			return "", err
		}
		if !seen[comp.Name] {
			seen[comp.Name] = true
			out.Actions[comp.Name] = comp
			merged.Actions = append(merged.Actions, comp.Name)
		}
		return comp.Name, nil
	}
	for _, n1 := range a1s {
		for _, n2 := range a2s {
			if _, err := addComposite(n1, n2); err != nil {
				return nil, err
			}
		}
	}
	defName, err := addComposite(d1, d2)
	if err != nil {
		return nil, err
	}
	merged.DefaultAction = defName
	merged.DefaultParams = append(append([]uint64(nil), ot1.DefaultParams...), ot2.DefaultParams...)

	// Replace the two applies with one and drop the old tables.
	out.Pipeline = append(out.Pipeline[:pos],
		append([]flexbpf.Stmt{{Apply: mergedName}}, out.Pipeline[pos+2:]...)...)
	var keptTables []*flexbpf.TableSpec
	for _, t := range out.Tables {
		if t.Name != t1Name && t.Name != t2Name {
			keptTables = append(keptTables, t)
		}
	}
	out.Tables = append(keptTables, merged)

	if err := flexbpf.Verify(out); err != nil {
		return nil, fmt.Errorf("compiler: merged program failed verification: %w", err)
	}

	var stats MergeStats
	dm1 := flexbpf.TableDemand(prog, t1)
	dm2 := flexbpf.TableDemand(prog, t2)
	dm := flexbpf.TableDemand(out, merged)
	stats.MemBeforeBits = dm1.SRAMBits + dm1.TCAMBits + dm2.SRAMBits + dm2.TCAMBits
	stats.MemAfterBits = dm.SRAMBits + dm.TCAMBits
	stats.TCAMBeforeBits = dm1.TCAMBits + dm2.TCAMBits
	stats.TCAMAfterBits = dm.TCAMBits
	if stats.MemBeforeBits > 0 {
		stats.MemFactor = float64(stats.MemAfterBits) / float64(stats.MemBeforeBits)
	}
	stats.LookupsSaved = 1
	stats.LatencySavedNs = perLookupNs

	return &Merge{Program: out, Stats: stats}, nil
}

func ternaryKeys(keys []flexbpf.TableKey) []flexbpf.TableKey {
	out := make([]flexbpf.TableKey, len(keys))
	for i, k := range keys {
		k.Kind = flexbpf.MatchTernary
		out[i] = k
	}
	return out
}

func actionsOf(t *flexbpf.TableSpec) []string {
	return append([]string(nil), t.Actions...)
}

// composeActions builds the action "a1+a2": run a1; if it returns
// normally, run a2 with its parameter indexes shifted past a1's.
func composeActions(p *flexbpf.Program, n1, n2 string) (*flexbpf.Action, error) {
	a1 := p.Actions[n1]
	a2 := p.Actions[n2]
	if a1 == nil || a2 == nil {
		return nil, fmt.Errorf("compiler: merge: missing action %q or %q", n1, n2)
	}
	name := n1 + "+" + n2
	var body []flexbpf.Instr
	// a1's body with terminal Ret redirected past a1's end. Because
	// jumps are forward-only, converting each Ret into a forward jump is
	// sound.
	a1len := len(a1.Body)
	for pc, ins := range a1.Body {
		if ins.Op == flexbpf.OpRet {
			body = append(body, flexbpf.Instr{Op: flexbpf.OpJmp, Off: int32(a1len - pc - 1)})
			continue
		}
		body = append(body, ins)
	}
	for _, ins := range a2.Body {
		if ins.Op == flexbpf.OpLdParam {
			ins.Imm += uint64(a1.NumParams)
		}
		body = append(body, ins)
	}
	return &flexbpf.Action{Name: name, NumParams: a1.NumParams + a2.NumParams, Body: body}, nil
}
