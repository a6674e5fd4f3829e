package flexbpf

import "fmt"

// Demand quantifies the device resources a program element needs. It is
// the currency of the FlexNet compiler (§3.3): placement fits Demands
// into device Capacity, and fungibility means reclaiming Demand from
// removed programs for new ones.
type Demand struct {
	// SRAMBits is exact-match and register memory.
	SRAMBits int
	// TCAMBits is ternary/LPM/range match memory.
	TCAMBits int
	// ALUs is the worst-case per-packet ALU operation count.
	ALUs int
	// Tables is the number of match/action tables.
	Tables int
	// ParserStates is the number of extra parser states needed.
	ParserStates int
}

// Add returns the sum of two demands.
func (d Demand) Add(o Demand) Demand {
	return Demand{
		SRAMBits:     d.SRAMBits + o.SRAMBits,
		TCAMBits:     d.TCAMBits + o.TCAMBits,
		ALUs:         d.ALUs + o.ALUs,
		Tables:       d.Tables + o.Tables,
		ParserStates: d.ParserStates + o.ParserStates,
	}
}

// Sub returns d - o (components may go negative; callers check Fits).
func (d Demand) Sub(o Demand) Demand {
	return Demand{
		SRAMBits:     d.SRAMBits - o.SRAMBits,
		TCAMBits:     d.TCAMBits - o.TCAMBits,
		ALUs:         d.ALUs - o.ALUs,
		Tables:       d.Tables - o.Tables,
		ParserStates: d.ParserStates - o.ParserStates,
	}
}

// Fits reports whether d fits within capacity c.
func (d Demand) Fits(c Demand) bool {
	return d.SRAMBits <= c.SRAMBits &&
		d.TCAMBits <= c.TCAMBits &&
		d.ALUs <= c.ALUs &&
		d.Tables <= c.Tables &&
		d.ParserStates <= c.ParserStates
}

func (d Demand) String() string {
	return fmt.Sprintf("{sram=%db tcam=%db alus=%d tables=%d parser=%d}",
		d.SRAMBits, d.TCAMBits, d.ALUs, d.Tables, d.ParserStates)
}

// Per-entry bookkeeping overhead in bits (validity, pointers, action id).
const entryOverheadBits = 32

// fieldBits returns the declared or natural width of a table key.
func fieldBits(k TableKey) int {
	if k.Bits > 0 {
		return k.Bits
	}
	return 32 // conservative natural width when unspecified
}

// TableDemand computes the resource demand of one table (entries sized
// at spec capacity) including its widest action.
func TableDemand(p *Program, t *TableSpec) Demand {
	keyBits := 0
	tcam := false
	for _, k := range t.Keys {
		keyBits += fieldBits(k)
		if k.Kind.NeedsTCAM() {
			tcam = true
		}
	}
	// Action data: the widest parameter list among permitted actions.
	maxParams := 0
	maxALU := 0
	consider := func(name string) {
		a := p.Actions[name]
		if a == nil {
			return
		}
		if a.NumParams > maxParams {
			maxParams = a.NumParams
		}
		if len(a.Body) > maxALU {
			maxALU = len(a.Body)
		}
	}
	for _, a := range t.Actions {
		consider(a)
	}
	if t.DefaultAction != "" {
		consider(t.DefaultAction)
	}
	entryBits := keyBits + maxParams*32 + entryOverheadBits
	d := Demand{Tables: 1, ALUs: maxALU}
	if tcam {
		d.TCAMBits = t.Size * entryBits
	} else {
		d.SRAMBits = t.Size * entryBits
	}
	return d
}

// MapDemand computes the demand of one map.
func MapDemand(m *MapSpec) Demand {
	per := m.ValueBits + 64 + entryOverheadBits // key + value + overhead
	if m.Kind == MapArray {
		per = m.ValueBits // arrays need no stored keys
	}
	return Demand{SRAMBits: m.MaxEntries * per}
}

// ProgramDemand computes the total demand of a program on a generic
// target: tables + maps + counters + meters + inline compute + parser.
func ProgramDemand(p *Program) Demand {
	var d Demand
	for _, t := range p.Tables {
		d = d.Add(TableDemand(p, t))
	}
	for _, m := range p.Maps {
		d = d.Add(MapDemand(m))
	}
	for _, c := range p.Counters {
		d.SRAMBits += c.Size * 64
	}
	for _, m := range p.Meters {
		d.SRAMBits += m.Size * 128
	}
	// Inline Do blocks contribute ALU work.
	walkStmts(p.Pipeline, func(s *Stmt) {
		if s.Do != nil {
			d.ALUs += len(s.Do)
		}
	})
	d.ParserStates = len(p.RequiredHeaders)
	return d
}
