package dataplane

import (
	"fmt"

	"flexnet/internal/flexbpf"
)

// poolModel models SmartNIC SoCs, FPGAs, and host stacks (§3.3(iv)):
// "Resources are essentially fully fungible on these architectures."
// One memory pool backs everything, ternary matching is emulated in
// software (no dedicated TCAM), and the binding compute constraint is a
// per-packet cycle budget.
type poolModel struct {
	cfg        Config
	freeBits   int
	totalBits  int
	freeCycles int
	totalCyc   int
	parserUsed int
	parserCap  int
	placed     map[*poolPlacement]struct{} // live placements, by identity (see drmtModel)
}

func newPoolModel(cfg Config) *poolModel {
	return &poolModel{
		cfg:        cfg,
		freeBits:   cfg.PoolSRAMBits,
		totalBits:  cfg.PoolSRAMBits,
		freeCycles: cfg.CyclesBudget,
		totalCyc:   cfg.CyclesBudget,
		parserCap:  256, // software parsers are cheap
		placed:     map[*poolPlacement]struct{}{},
	}
}

func (m *poolModel) place(prog *flexbpf.Program) (placement, error) {
	d := flexbpf.ProgramDemand(prog)
	parser := d.ParserStates
	bits := d.SRAMBits + d.TCAMBits // TCAM emulated in ordinary memory
	if m.parserUsed+parser > m.parserCap {
		return nil, fmt.Errorf("dataplane: pool: parser budget exceeded")
	}
	if bits > m.freeBits {
		return nil, fmt.Errorf("dataplane: pool: program %s needs %d bits, %d free", prog.Name, bits, m.freeBits)
	}
	if d.ALUs > m.freeCycles {
		return nil, fmt.Errorf("dataplane: pool: program %s needs %d cycles, %d free", prog.Name, d.ALUs, m.freeCycles)
	}
	m.freeBits -= bits
	m.freeCycles -= d.ALUs
	m.parserUsed += parser
	store := d
	store.ParserStates = 0
	pl := &poolPlacement{d: store, parser: parser}
	m.placed[pl] = struct{}{}
	return pl, nil
}

func (m *poolModel) release(p placement) {
	pl, ok := p.(*poolPlacement)
	if !ok {
		return
	}
	if _, here := m.placed[pl]; !here {
		return
	}
	m.freeBits += pl.d.SRAMBits + pl.d.TCAMBits
	m.freeCycles += pl.d.ALUs
	m.parserUsed -= pl.parser
	delete(m.placed, pl)
}

func (m *poolModel) capacity() flexbpf.Demand {
	return flexbpf.Demand{
		SRAMBits:     m.totalBits,
		TCAMBits:     m.totalBits, // same pool; free() keeps them consistent
		ALUs:         m.totalCyc,
		Tables:       1 << 12,
		ParserStates: m.parserCap,
	}
}

func (m *poolModel) free() flexbpf.Demand {
	return flexbpf.Demand{
		SRAMBits:     m.freeBits,
		TCAMBits:     m.freeBits,
		ALUs:         m.freeCycles,
		Tables:       1 << 12,
		ParserStates: m.parserCap - m.parserUsed,
	}
}

func (m *poolModel) fungibility() float64 {
	if m.totalBits == 0 {
		return 0
	}
	return float64(m.freeBits) / float64(m.totalBits)
}

func (m *poolModel) repack() (int, error) { return 0, nil }
