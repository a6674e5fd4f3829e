package flexbpf

import (
	"sort"

	"flexnet/internal/packet"
)

// This file derives the static cache profile of a linked program: which
// packet fields the program can read or write, and whether its effects
// are a pure function of those fields plus its tables' contents. The
// flow cache (internal/flowcache, DESIGN.md §12) uses the profile to
// build a sound validation set for megaflow entries: a follower packet
// whose profile fields (and headers, and pinned table generations) match
// a recorded first packet must produce bit-identical pipeline output, so
// the recorded output can be replayed without running the pipeline.

// CacheProfile summarizes a linked program's packet-visible data flow.
type CacheProfile struct {
	// Cacheable reports that the program's output depends only on the
	// packet (Reads, headers, length) and its tables' contents: no
	// per-flow state, counters, meters, clock or header insertion, and
	// no punt verdict. Programs that fail this are never
	// short-circuited by the flow cache.
	Cacheable bool
	// Reads and Writes are the field IDs the program may read or write,
	// sorted and deduplicated. Conservative over-approximations: every
	// reachable instruction, action body, condition, and table key is
	// included.
	Reads  []packet.FieldID
	Writes []packet.FieldID
	// UsesPktLen reports OpPktLen use; packet length then joins the
	// validation set.
	UsesPktLen bool
}

// profileScan accumulates a profile over instruction blocks.
type profileScan struct {
	cacheable bool
	reads     map[packet.FieldID]struct{}
	writes    map[packet.FieldID]struct{}
	usesLen   bool
}

func (ps *profileScan) read(fid packet.FieldID)  { ps.reads[fid] = struct{}{} }
func (ps *profileScan) write(fid packet.FieldID) { ps.writes[fid] = struct{}{} }

// block scans one lowered instruction block.
func (ps *profileScan) block(code []linstr) {
	for _, ins := range code {
		switch ins.op {
		case OpLdField, OpHasField:
			ps.read(packet.FieldID(ins.imm))
		case OpStField:
			ps.write(packet.FieldID(ins.imm))
		case lopLd2:
			ps.read(packet.FieldID(ins.imm))
			ps.read(packet.FieldID(ins.off))
		case lopFldCp:
			ps.read(packet.FieldID(ins.imm))
			ps.write(packet.FieldID(ins.off))
		case lopLdJImm:
			ps.read(packet.FieldID(ins.imm >> 32))
		case lopAluSt:
			ps.write(packet.FieldID(ins.imm))
		case OpPktLen:
			ps.usesLen = true
		case OpFlowHash:
			// FlowKey's truncated 5-tuple is the cache key itself, so two
			// packets sharing a cache entry share the hash by construction.
		case OpMapLoad, OpMapHas, OpMapStore, lopMapInc, lopMapIncR,
			OpCount, OpMeterExec, OpNow, OpAddHdr, OpPunt:
			// Per-flow state, clocks, header insertion and punts: output
			// is not a function of the validation set, or replay would
			// skip required side effects.
			ps.cacheable = false
		}
	}
}

func sortedFields(m map[packet.FieldID]struct{}) []packet.FieldID {
	out := make([]packet.FieldID, 0, len(m))
	for fid := range m {
		out = append(out, fid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CacheProfile computes the program's static cache profile. The result
// depends only on the linked code, so callers may compute it once per
// configuration and reuse it for every packet.
func (lp *LinkedProgram) CacheProfile() CacheProfile {
	ps := &profileScan{
		cacheable: true,
		reads:     map[packet.FieldID]struct{}{},
		writes:    map[packet.FieldID]struct{}{},
	}
	ps.block(lp.code)
	for _, code := range lp.actions {
		// Every action is reachable: table entries select actions at
		// runtime.
		ps.block(code)
	}
	for i := range lp.conds {
		ps.read(lp.conds[i].fid)
	}
	for i := range lp.tables {
		for _, fid := range lp.tables[i].keyIDs {
			ps.read(fid)
		}
	}
	return CacheProfile{
		Cacheable:  ps.cacheable,
		Reads:      sortedFields(ps.reads),
		Writes:     sortedFields(ps.writes),
		UsesPktLen: ps.usesLen,
	}
}

// TableInstances returns the table instances the program's pipeline
// applies, in apply order. The flow cache pins their generations so
// entry mutations (including bulk ReplaceAll rewrites that do not bump
// the device epoch) invalidate dependent cache entries.
func (lp *LinkedProgram) TableInstances() []*TableInstance {
	out := make([]*TableInstance, len(lp.tables))
	for i := range lp.tables {
		out[i] = lp.tables[i].ti
	}
	return out
}
