package dataplane

// This file implements the device's megaflow flow cache (DESIGN.md §12)
// and the accounting every processed packet shares. The resolved
// outcome of the first packet of a flow is recorded against the packet
// state the pipeline depends on (static CacheProfile of every installed
// instance, install filters included) and replayed for followers that
// match it. Replay reproduces the exact per-packet
// telemetry (Instrs, Lookups, latency), so device counters are
// byte-identical to those of a device that runs the pipeline for every
// packet (DisableFlowCache, the differential oracle); cache activity is
// reported under separate "flowcache.<dev>.*" counters.
//
// All of it is counted in one block of plain fields per device (tally),
// written only by the goroutine driving the packet path and published to
// the registry as views (DESIGN.md §6): a cache-hit visit takes no lock
// and does no atomic read-modify-write.

import (
	"sort"

	"flexnet/internal/flexbpf"
	"flexnet/internal/flowcache"
	"flexnet/internal/packet"
	"flexnet/internal/telemetry"
)

// fastpathInfo is the per-configuration static analysis backing the flow
// cache: whether every installed instance is cacheable, and the combined
// dependency sets. Computed lazily once per config (configs are
// immutable after commit).
type fastpathInfo struct {
	// cacheable: every instance's profile is cacheable.
	cacheable bool
	// fields is the validation set: reads ∪ writes, sorted and
	// deduplicated; no parser fields (DESIGN.md §5).
	fields []packet.FieldID
	// writes is the combined write set (replayed on hits).
	writes []packet.FieldID
	// tables are all applied table instances, generation-pinned per entry.
	tables []*flexbpf.TableInstance
	// usesLen: some instance reads the packet length.
	usesLen bool
}

// fastpath returns the config's analysis, computing it on first use. A
// racing duplicate computation is harmless (idempotent result).
func (cfg *config) fastpath() *fastpathInfo {
	if fp := cfg.fp.Load(); fp != nil {
		return fp
	}
	fp := computeFastpath(cfg)
	cfg.fp.Store(fp)
	return fp
}

func computeFastpath(cfg *config) *fastpathInfo {
	fp := &fastpathInfo{cacheable: true}
	fields := map[packet.FieldID]struct{}{}
	writes := map[packet.FieldID]struct{}{}
	for _, inst := range cfg.instances {
		lp := inst.linked
		prof := lp.CacheProfile()
		if !prof.Cacheable {
			fp.cacheable = false
			return fp
		}
		for _, fid := range prof.Reads {
			fields[fid] = struct{}{}
		}
		for _, fid := range prof.Writes {
			fields[fid] = struct{}{}
			writes[fid] = struct{}{}
		}
		fp.usesLen = fp.usesLen || prof.UsesPktLen
		fp.tables = append(fp.tables, lp.TableInstances()...)
	}
	fp.fields = sortFieldSet(fields)
	fp.writes = sortFieldSet(writes)
	return fp
}

func sortFieldSet(m map[packet.FieldID]struct{}) []packet.FieldID {
	out := make([]packet.FieldID, 0, len(m))
	for fid := range m {
		out = append(out, fid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// tally is a device's packet-path accounting: the lifetime Counters,
// table lookups, the processing-latency histogram, and the flow cache's
// activity. Plain fields, written only by the goroutine driving the
// device (ProcessCtx's contract); Stats, EnergyJoules, FlowCacheStats and
// the registry views read them serialized with that goroutine.
type tally struct {
	c       Counters
	lookups uint64
	lat     *telemetry.LocalHistogram
	fc      struct {
		hits, misses, inserts           uint64
		replayedInstrs, replayedLookups uint64
		// staleServed counts hits whose outcome was recorded under
		// another epoch than the configuration processing the packet. A
		// configuration's cache holds only its own outcomes, so it stays
		// zero; the chaos soak asserts it, and a build whose commits reuse
		// the previous cache (flowcache_commit_mutant.go) trips it.
		staleServed uint64
	}
}

// registerFlowCacheViews publishes the flow cache's counters under
// "flowcache.<dev>.": views over the accounting block, and over the
// commit count for invalidations. Caller holds d.mu.
func (d *Device) registerFlowCacheViews(reg *telemetry.Registry) {
	prefix := "flowcache." + d.name + "."
	fc := &d.acct.fc
	reg.CounterView(prefix+"hits", func() uint64 { return fc.hits })
	reg.CounterView(prefix+"misses", func() uint64 { return fc.misses })
	reg.CounterView(prefix+"inserts", func() uint64 { return fc.inserts })
	reg.CounterView(prefix+"invalidations", d.fcInvalidations.Load)
	reg.CounterView(prefix+"stale_served", func() uint64 { return fc.staleServed })
	reg.CounterView(prefix+"replayed_instrs", func() uint64 { return fc.replayedInstrs })
	reg.CounterView(prefix+"replayed_lookups", func() uint64 { return fc.replayedLookups })
}

// DisableFlowCache removes the device's megaflow cache, so that every
// packet runs the linked pipeline. It is not a tuning knob: it is the
// differential oracle that the equivalence tests, E17's "dev telemetry"
// column and the serial benchmarks compare the default device against.
// Call it at build time, before SetMetrics (so no flowcache.* counters
// are registered) and before traffic flows: it republishes the current
// configuration without its cache, and no later commit gives it one.
func (d *Device) DisableFlowCache() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.noFlowCache = true
	cur := d.snapshot()
	d.current.Store(&config{epoch: cur.epoch, instances: cur.instances})
}

// FlowCacheStats returns the cache's activity counters (zero Stats when
// the cache is disabled). It reads the packet path's accounting, under
// ProcessCtx's contract.
func (d *Device) FlowCacheStats() flowcache.Stats {
	fc := &d.acct.fc
	return flowcache.Stats{Hits: fc.hits, Misses: fc.misses, Inserts: fc.inserts, Invalidations: d.fcInvalidations.Load()}
}

// accountProcessed runs the shared accounting tail for a fully processed
// packet (pipeline or cache replay): modelled latency, then the
// accounting block's latency histogram, lookups and lifetime counters.
func (d *Device) accountProcessed(st *ProcStats) {
	st.LatencyNs = d.cfg.Perf.BaseLatencyNs +
		d.cfg.Perf.PerInstrNs*uint64(st.Instrs) +
		d.cfg.Perf.PerLookupNs*uint64(st.Lookups)
	a := &d.acct
	a.lat.Observe(int64(st.LatencyNs))
	a.lookups += uint64(st.Lookups)
	countVerdict(&a.c, st.Verdict)
}

func countVerdict(c *Counters, v packet.Verdict) {
	c.Processed++
	switch v {
	case packet.VerdictDrop:
		c.Dropped++
	case packet.VerdictForward:
		c.Forwarded++
	case packet.VerdictToController:
		c.Punted++
	}
}

// flowRecord is the capture scratch for one to-be-inserted cache entry.
type flowRecord struct {
	key  packet.FlowKey
	gens []flowcache.TableGen
	pre  []flowcache.FieldVal
	hdrs packet.Chain
	plen int
}

// tryFlowCache attempts a cache replay for pkt under cfg. It returns the
// replayed stats on a hit; on a miss it returns a capture record the
// caller passes to recordFlow after the pipeline runs (nil when the
// configuration is uncacheable or the packet is traced).
func (d *Device) tryFlowCache(pkt *packet.Packet, cfg *config, st *ProcStats) (*flowRecord, bool) {
	if pkt.Trace != nil {
		// Traced packets must walk the real pipeline so experiments see
		// the visit sequence.
		return nil, false
	}
	fp := cfg.fastpath()
	if !fp.cacheable {
		return nil, false
	}
	key := pkt.FlowKey()
	fc := &d.acct.fc
	if e, ok := cfg.fc.Lookup(key, cfg.epoch, pkt); ok {
		e.Replay(pkt)
		// The packet reports the epoch its outcome was recorded under.
		pkt.Epoch, st.Epoch = e.Epoch, e.Epoch
		st.Verdict = e.Verdict
		st.Instrs = e.Instrs
		st.Lookups = e.Lookups
		fc.hits++
		fc.replayedInstrs += uint64(e.Instrs)
		fc.replayedLookups += uint64(e.Lookups)
		if e.Epoch != cfg.epoch {
			fc.staleServed++
		}
		return nil, true
	}
	fc.misses++
	// Capture the validation state before the pipeline mutates it.
	rec := &flowRecord{
		key:  key,
		gens: make([]flowcache.TableGen, len(fp.tables)),
		pre:  make([]flowcache.FieldVal, len(fp.fields)),
		hdrs: pkt.Headers,
		plen: pkt.PayloadLen,
	}
	for i, ti := range fp.tables {
		rec.gens[i] = flowcache.TableGen{TI: ti, Gen: ti.Generation()}
	}
	for i, fid := range fp.fields {
		v, ok := pkt.FieldOKByID(fid)
		rec.pre[i] = flowcache.FieldVal{FID: fid, Val: v, Present: ok}
	}
	return rec, false
}

// recordFlow inserts the completed pipeline outcome into the cache of
// the configuration it ran under. Only terminal Forward/Drop verdicts are
// recorded; errors and punts always take the pipeline.
func (d *Device) recordFlow(rec *flowRecord, pkt *packet.Packet, cfg *config, st *ProcStats) {
	if st.Verdict != packet.VerdictForward && st.Verdict != packet.VerdictDrop {
		return
	}
	fp := cfg.fastpath()
	e := &flowcache.Entry{
		Epoch:      cfg.epoch,
		Gens:       rec.gens,
		Headers:    rec.hdrs,
		PayloadLen: rec.plen,
		CheckLen:   fp.usesLen,
		Pre:        rec.pre,
		Post:       make([]flowcache.FieldVal, len(fp.writes)),
		Verdict:    st.Verdict,
		Egress:     pkt.EgressPort,
		Instrs:     st.Instrs,
		Lookups:    st.Lookups,
	}
	for i, fid := range fp.writes {
		v, ok := pkt.FieldOKByID(fid)
		e.Post[i] = flowcache.FieldVal{FID: fid, Val: v, Present: ok}
	}
	if cfg.fc.Insert(rec.key, e) {
		d.acct.fc.inserts++
	}
}
