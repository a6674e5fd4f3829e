package dataplane

import (
	"fmt"

	"flexnet/internal/flexbpf"
)

// drmtModel models disaggregated RMT (§3.3(ii)): run-to-completion MA
// processors with memory physically separated in shared SRAM/TCAM pools.
// "Unrestricted by stage boundaries, any processor can access any table"
// — so memory and compute are globally fungible, and placement reduces
// to pool-capacity checks. This mirrors the Nvidia Spectrum architecture
// the authors' runtime-programmable switch work builds on [66].
type drmtModel struct {
	pool       flexbpf.Demand // remaining
	total      flexbpf.Demand
	parserUsed int
	parserCap  int
	// placed is the set of live placements, by identity: an in-place
	// update holds two placements of one program name until it commits.
	placed map[*poolPlacement]struct{}
}

type poolPlacement struct {
	d      flexbpf.Demand
	parser int
}

func (p *poolPlacement) demand() flexbpf.Demand { return p.d }

func newDRMTModel(cfg Config) *drmtModel {
	total := flexbpf.Demand{
		SRAMBits: cfg.PoolSRAMBits,
		TCAMBits: cfg.PoolTCAMBits,
		ALUs:     cfg.CyclesBudget,
		// dRMT has no hard table-count limit; processors impose a
		// generous practical cap.
		Tables: cfg.Processors * 16,
	}
	return &drmtModel{
		pool:      total,
		total:     total,
		parserCap: 64,
		placed:    map[*poolPlacement]struct{}{},
	}
}

func (m *drmtModel) place(prog *flexbpf.Program) (placement, error) {
	d := flexbpf.ProgramDemand(prog)
	parser := d.ParserStates
	d.ParserStates = 0
	if m.parserUsed+parser > m.parserCap {
		return nil, fmt.Errorf("dataplane: drmt: parser budget exceeded")
	}
	if !d.Fits(m.pool) {
		return nil, fmt.Errorf("dataplane: drmt: program %s demand %v exceeds free pool %v", prog.Name, d, m.pool)
	}
	m.pool = m.pool.Sub(d)
	m.parserUsed += parser
	pl := &poolPlacement{d: d, parser: parser}
	m.placed[pl] = struct{}{}
	return pl, nil
}

func (m *drmtModel) release(p placement) {
	pl, ok := p.(*poolPlacement)
	if !ok {
		return
	}
	if _, here := m.placed[pl]; !here {
		return
	}
	m.pool = m.pool.Add(pl.d)
	m.parserUsed -= pl.parser
	delete(m.placed, pl)
}

func (m *drmtModel) capacity() flexbpf.Demand {
	c := m.total
	c.ParserStates = m.parserCap
	return c
}

func (m *drmtModel) free() flexbpf.Demand {
	f := m.pool
	f.ParserStates = m.parserCap - m.parserUsed
	return f
}

// fungibility: disaggregation makes all free memory immediately
// claimable.
func (m *drmtModel) fungibility() float64 {
	capBits := float64(m.total.SRAMBits + m.total.TCAMBits)
	if capBits == 0 {
		return 0
	}
	return float64(m.pool.SRAMBits+m.pool.TCAMBits) / capBits
}
