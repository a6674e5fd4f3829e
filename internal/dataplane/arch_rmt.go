package dataplane

import (
	"fmt"
	"slices"

	"flexnet/internal/flexbpf"
)

// rmtModel models an RMT pipeline (Tofino/FlexPipe class, §3.3(i)):
// a fixed number of stages, each with its own SRAM, TCAM, ALU, and
// table-slot budget. Match dependencies force dependent tables into
// strictly later stages. Resources are fungible *within* a stage; with
// CrossStageRealloc ("runtime support to reconfigure individual stages"),
// Repack may move tables across stages, making all pipeline resources
// fungible.
type rmtModel struct {
	cfg        Config
	stageCap   flexbpf.Demand
	used       []flexbpf.Demand // per stage
	parserUsed int
	parserCap  int
	// placed holds the live placements in install order, for
	// deterministic repacking. Placements are told apart by identity, not
	// by program name: an in-place update holds the old and the new
	// placement of one name until it commits.
	placed []*rmtPlacement
}

type rmtItem struct {
	name    string
	d       flexbpf.Demand
	isTable bool
}

type rmtPlacement struct {
	progName string
	items    []rmtItem
	deps     [][2]string // table-before-table pairs
	stageOf  map[string]int
	parser   int
	total    flexbpf.Demand
}

func (p *rmtPlacement) demand() flexbpf.Demand { return p.total }

func newRMTModel(cfg Config) *rmtModel {
	m := &rmtModel{
		cfg: cfg,
		stageCap: flexbpf.Demand{
			SRAMBits: cfg.StageSRAMBits,
			TCAMBits: cfg.StageTCAMBits,
			ALUs:     cfg.StageALUs,
			Tables:   cfg.StageTables,
		},
		used:      make([]flexbpf.Demand, cfg.Stages),
		parserCap: 64,
	}
	return m
}

// programItems decomposes a program into placeable units.
func programItems(prog *flexbpf.Program) ([]rmtItem, [][2]string, int) {
	var items []rmtItem
	for _, t := range prog.Tables {
		items = append(items, rmtItem{name: "table:" + t.Name, d: flexbpf.TableDemand(prog, t), isTable: true})
	}
	for _, mp := range prog.Maps {
		items = append(items, rmtItem{name: "map:" + mp.Name, d: flexbpf.MapDemand(mp)})
	}
	for _, c := range prog.Counters {
		items = append(items, rmtItem{name: "counter:" + c.Name, d: flexbpf.Demand{SRAMBits: c.Size * 64}})
	}
	for _, mt := range prog.Meters {
		items = append(items, rmtItem{name: "meter:" + mt.Name, d: flexbpf.Demand{SRAMBits: mt.Size * 128}})
	}
	// Inline compute blocks need stage ALUs.
	inline := 0
	for i := range prog.Pipeline {
		if prog.Pipeline[i].Do != nil {
			inline += len(prog.Pipeline[i].Do)
		}
	}
	if inline > 0 {
		items = append(items, rmtItem{name: "compute:" + prog.Name, d: flexbpf.Demand{ALUs: inline}})
	}
	deps := prog.TableDependencies()
	return items, deps, len(prog.RequiredHeaders)
}

// topoTables orders a placement's table items respecting deps; the input
// order breaks ties (deterministic).
func topoTables(items []rmtItem, deps [][2]string) ([]rmtItem, error) {
	pred := map[string][]string{}
	for _, d := range deps {
		pred["table:"+d[1]] = append(pred["table:"+d[1]], "table:"+d[0])
	}
	var tables, rest []rmtItem
	for _, it := range items {
		if it.isTable {
			tables = append(tables, it)
		} else {
			rest = append(rest, it)
		}
	}
	done := map[string]bool{}
	var order []rmtItem
	for len(order) < len(tables) {
		progress := false
		for _, it := range tables {
			if done[it.name] {
				continue
			}
			ready := true
			for _, p := range pred[it.name] {
				if !done[p] {
					ready = false
					break
				}
			}
			if ready {
				done[it.name] = true
				order = append(order, it)
				progress = true
			}
		}
		if !progress {
			return nil, fmt.Errorf("dataplane: cyclic table dependencies")
		}
	}
	return append(order, rest...), nil
}

// tryAssign assigns items to stages on scratch usage; returns stage map.
func (m *rmtModel) tryAssign(used []flexbpf.Demand, items []rmtItem, deps [][2]string) (map[string]int, error) {
	ordered, err := topoTables(items, deps)
	if err != nil {
		return nil, err
	}
	pred := map[string][]string{}
	for _, d := range deps {
		pred["table:"+d[1]] = append(pred["table:"+d[1]], "table:"+d[0])
	}
	stageOf := map[string]int{}
	for _, it := range ordered {
		min := 0
		if it.isTable {
			for _, p := range pred[it.name] {
				if s, ok := stageOf[p]; ok && s+1 > min {
					min = s + 1
				}
			}
		}
		placed := false
		for s := min; s < len(used); s++ {
			if used[s].Add(it.d).Fits(m.stageCap) {
				used[s] = used[s].Add(it.d)
				stageOf[it.name] = s
				placed = true
				break
			}
		}
		if !placed {
			return nil, fmt.Errorf("dataplane: rmt: no stage fits item %s %v (min stage %d)", it.name, it.d, min)
		}
	}
	return stageOf, nil
}

func (m *rmtModel) place(prog *flexbpf.Program) (placement, error) {
	items, deps, parser := programItems(prog)
	if m.parserUsed+parser > m.parserCap {
		return nil, fmt.Errorf("dataplane: rmt: parser budget exceeded (%d+%d > %d)", m.parserUsed, parser, m.parserCap)
	}
	scratch := append([]flexbpf.Demand(nil), m.used...)
	stageOf, err := m.tryAssign(scratch, items, deps)
	if err != nil {
		return nil, err
	}
	m.used = scratch
	m.parserUsed += parser
	pl := &rmtPlacement{
		progName: prog.Name,
		items:    items,
		deps:     deps,
		stageOf:  stageOf,
		parser:   parser,
		total:    flexbpf.ProgramDemand(prog),
	}
	m.placed = append(m.placed, pl)
	return pl, nil
}

func (m *rmtModel) release(p placement) {
	pl, ok := p.(*rmtPlacement)
	if !ok {
		return
	}
	i := slices.Index(m.placed, pl)
	if i < 0 {
		return
	}
	m.placed = slices.Delete(m.placed, i, i+1)
	for _, it := range pl.items {
		s := pl.stageOf[it.name]
		m.used[s] = m.used[s].Sub(it.d)
	}
	m.parserUsed -= pl.parser
}

func (m *rmtModel) capacity() flexbpf.Demand {
	return flexbpf.Demand{
		SRAMBits:     m.stageCap.SRAMBits * m.cfg.Stages,
		TCAMBits:     m.stageCap.TCAMBits * m.cfg.Stages,
		ALUs:         m.stageCap.ALUs * m.cfg.Stages,
		Tables:       m.stageCap.Tables * m.cfg.Stages,
		ParserStates: m.parserCap,
	}
}

func (m *rmtModel) free() flexbpf.Demand {
	f := m.capacity()
	for _, u := range m.used {
		f = f.Sub(u)
	}
	f.ParserStates = m.parserCap - m.parserUsed
	return f
}

// fungibility: with cross-stage reallocation all free resources are
// claimable (after a repack); without it, only the best single stage's
// contiguous free space is guaranteed claimable by a new table, so we
// report the mean of per-stage best-case fractions.
func (m *rmtModel) fungibility() float64 {
	cap := m.capacity()
	capBits := float64(cap.SRAMBits + cap.TCAMBits)
	if capBits == 0 {
		return 0
	}
	if m.cfg.CrossStageRealloc {
		f := m.free()
		return float64(f.SRAMBits+f.TCAMBits) / capBits
	}
	best := 0
	for s := range m.used {
		fr := m.stageCap.Sub(m.used[s])
		if v := fr.SRAMBits + fr.TCAMBits; v > best {
			best = v
		}
	}
	return float64(best) / capBits
}

// repack re-derives every placement from scratch in install order,
// counting moved items. Without CrossStageRealloc this is refused: the
// device cannot move live tables between stages.
func (m *rmtModel) repack() (int, error) {
	if !m.cfg.CrossStageRealloc {
		return 0, fmt.Errorf("dataplane: rmt: device does not support cross-stage reallocation")
	}
	scratch := make([]flexbpf.Demand, m.cfg.Stages)
	newStages := make([]map[string]int, len(m.placed))
	// Deterministic order: install order; big programs first within a
	// from-scratch repack would be better packing, but stability wins.
	for i, pl := range m.placed {
		stageOf, err := m.tryAssign(scratch, pl.items, pl.deps)
		if err != nil {
			return 0, fmt.Errorf("dataplane: rmt: repack failed for %s: %w", pl.progName, err)
		}
		newStages[i] = stageOf
	}
	moves := 0
	for i, pl := range m.placed {
		for item, s := range newStages[i] {
			if pl.stageOf[item] != s {
				moves++
			}
		}
		pl.stageOf = newStages[i]
	}
	m.used = scratch
	return moves, nil
}
