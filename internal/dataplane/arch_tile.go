package dataplane

import (
	"fmt"

	"flexnet/internal/flexbpf"
)

// tileModel models tiled and elastic-pipe architectures (§3.3(iii)):
// Trident4 exposes hash and index tiles in SRAM alongside TCAM tiles;
// Jericho2 extends a standard pipeline with a Programmable Elements
// Matrix (PEM). "Fungibility occurs within the same tile types and the
// PEM elements": a freed hash tile can host any future exact-match
// table, but cannot become a TCAM tile.
type tileModel struct {
	cfg Config
	// free tile counts per type.
	freeHash, freeIndex, freeTCAM    int
	totalHash, totalIndex, totalTCAM int
	// PEM elements (0 disables the constraint: pure tile device).
	freePEM, totalPEM int
	// ALU budget for per-packet compute across tiles/PEM logic.
	freeALU, totalALU     int
	parserUsed, parserCap int
	placed                map[*tilePlacement]struct{}
}

type tilePlacement struct {
	hash, index, tcam, pem int
	alus                   int
	parser                 int
	total                  flexbpf.Demand
}

func (p *tilePlacement) demand() flexbpf.Demand { return p.total }

func newTileModel(cfg Config) *tileModel {
	alu := cfg.CyclesBudget
	if alu <= 0 {
		alu = 4096
	}
	return &tileModel{
		freeALU:    alu,
		totalALU:   alu,
		cfg:        cfg,
		freeHash:   cfg.HashTiles,
		freeIndex:  cfg.IndexTiles,
		freeTCAM:   cfg.TCAMTiles,
		totalHash:  cfg.HashTiles,
		totalIndex: cfg.IndexTiles,
		totalTCAM:  cfg.TCAMTiles,
		freePEM:    cfg.PEMElements,
		totalPEM:   cfg.PEMElements,
		parserCap:  64,
		placed:     map[*tilePlacement]struct{}{},
	}
}

func tilesFor(bits, tileBits int) int {
	if bits <= 0 {
		return 0
	}
	return (bits + tileBits - 1) / tileBits
}

// tileNeeds computes per-type tile demand for a program.
func (m *tileModel) tileNeeds(prog *flexbpf.Program) (hash, index, tcam, pem int) {
	for _, t := range prog.Tables {
		d := flexbpf.TableDemand(prog, t)
		if d.TCAMBits > 0 {
			tcam += tilesFor(d.TCAMBits, m.cfg.TileBits)
		} else {
			hash += tilesFor(d.SRAMBits, m.cfg.TileBits)
		}
		pem++ // each table programs one element when a PEM exists
	}
	for _, mp := range prog.Maps {
		d := flexbpf.MapDemand(mp)
		if mp.Kind == flexbpf.MapArray {
			index += tilesFor(d.SRAMBits, m.cfg.TileBits)
		} else {
			hash += tilesFor(d.SRAMBits, m.cfg.TileBits)
		}
	}
	for _, c := range prog.Counters {
		index += tilesFor(c.Size*64, m.cfg.TileBits)
	}
	for _, mt := range prog.Meters {
		index += tilesFor(mt.Size*128, m.cfg.TileBits)
	}
	// Standalone compute also occupies a PEM element.
	for i := range prog.Pipeline {
		if prog.Pipeline[i].Do != nil {
			pem++
			break
		}
	}
	return hash, index, tcam, pem
}

func (m *tileModel) place(prog *flexbpf.Program) (placement, error) {
	hash, index, tcam, pem := m.tileNeeds(prog)
	alus := flexbpf.ProgramDemand(prog).ALUs
	parser := len(prog.RequiredHeaders)
	if alus > m.freeALU {
		return nil, fmt.Errorf("dataplane: tile: program %s needs %d ALU cycles, %d free", prog.Name, alus, m.freeALU)
	}
	if m.parserUsed+parser > m.parserCap {
		return nil, fmt.Errorf("dataplane: tile: parser budget exceeded")
	}
	if hash > m.freeHash {
		return nil, fmt.Errorf("dataplane: tile: program %s needs %d hash tiles, %d free", prog.Name, hash, m.freeHash)
	}
	if index > m.freeIndex {
		return nil, fmt.Errorf("dataplane: tile: program %s needs %d index tiles, %d free", prog.Name, index, m.freeIndex)
	}
	if tcam > m.freeTCAM {
		return nil, fmt.Errorf("dataplane: tile: program %s needs %d TCAM tiles, %d free", prog.Name, tcam, m.freeTCAM)
	}
	if m.totalPEM > 0 && pem > m.freePEM {
		return nil, fmt.Errorf("dataplane: tile: program %s needs %d PEM elements, %d free", prog.Name, pem, m.freePEM)
	}
	m.freeHash -= hash
	m.freeIndex -= index
	m.freeTCAM -= tcam
	m.freeALU -= alus
	if m.totalPEM > 0 {
		m.freePEM -= pem
	}
	m.parserUsed += parser
	pl := &tilePlacement{
		hash: hash, index: index, tcam: tcam, pem: pem,
		alus:   alus,
		parser: parser,
		total:  flexbpf.ProgramDemand(prog),
	}
	m.placed[pl] = struct{}{}
	return pl, nil
}

func (m *tileModel) release(p placement) {
	pl, ok := p.(*tilePlacement)
	if !ok {
		return
	}
	if _, here := m.placed[pl]; !here {
		return
	}
	m.freeHash += pl.hash
	m.freeIndex += pl.index
	m.freeTCAM += pl.tcam
	m.freeALU += pl.alus
	if m.totalPEM > 0 {
		m.freePEM += pl.pem
	}
	m.parserUsed -= pl.parser
	delete(m.placed, pl)
}

func (m *tileModel) capacity() flexbpf.Demand {
	return flexbpf.Demand{
		SRAMBits:     (m.totalHash + m.totalIndex) * m.cfg.TileBits,
		TCAMBits:     m.totalTCAM * m.cfg.TileBits,
		ALUs:         m.totalALU,
		Tables:       maxInt(m.totalPEM, m.totalHash+m.totalTCAM),
		ParserStates: m.parserCap,
	}
}

func (m *tileModel) free() flexbpf.Demand {
	return flexbpf.Demand{
		SRAMBits:     (m.freeHash + m.freeIndex) * m.cfg.TileBits,
		TCAMBits:     m.freeTCAM * m.cfg.TileBits,
		ALUs:         m.freeALU,
		Tables:       maxInt(m.freePEM, m.freeHash+m.freeTCAM),
		ParserStates: m.parserCap - m.parserUsed,
	}
}

// fungibility: within-type fungibility means free tiles are claimable
// only by demands of the same type; report the type-weighted free
// fraction.
func (m *tileModel) fungibility() float64 {
	total := m.totalHash + m.totalIndex + m.totalTCAM
	if total == 0 {
		return 0
	}
	free := m.freeHash + m.freeIndex + m.freeTCAM
	return float64(free) / float64(total)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
