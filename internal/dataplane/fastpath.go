package dataplane

// This file implements the device's megaflow flow cache (DESIGN.md §12)
// and the accounting tail every processed packet shares. The resolved
// outcome of the first packet of a flow is recorded against the packet
// state the pipeline depends on (static CacheProfile of every installed
// instance, plus filter and parser select fields) and replayed for
// followers that match it. Replay reproduces the exact per-packet
// telemetry (Instrs, Lookups, latency, programs), so device counters are
// byte-identical to those of a device that runs the pipeline for every
// packet (DisableFlowCache, the differential oracle); cache activity is
// reported under separate "flowcache.<dev>.*" instruments.

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
	// fields is the validation set: reads ∪ writes ∪ filter-condition
	// fields ∪ parser select fields, sorted and deduplicated.
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
		if inst.lfilter != nil {
			for _, fid := range inst.lfilter.Fields() {
				fields[fid] = struct{}{}
			}
		}
		fp.usesLen = fp.usesLen || prof.UsesPktLen
		fp.tables = append(fp.tables, lp.TableInstances()...)
	}
	for _, name := range cfg.parser.SelectFields() {
		fields[packet.InternField(name)] = struct{}{}
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

// fcMetrics are the flow-cache telemetry instruments, registered under
// "flowcache.<dev>." by SetMetrics for a device that has its cache.
//
// staleServed counts replays of entries from a superseded epoch or table
// generation; by construction (entries validate both on every hit) it
// stays zero, and the chaos soak asserts that.
type fcMetrics struct {
	hits            *telemetry.Counter
	misses          *telemetry.Counter
	inserts         *telemetry.Counter
	invalidations   *telemetry.Counter
	staleServed     *telemetry.Counter
	replayedInstrs  *telemetry.Counter
	replayedLookups *telemetry.Counter
}

func newFCMetrics(reg *telemetry.Registry, dev string) fcMetrics {
	prefix := "flowcache." + dev + "."
	return fcMetrics{
		hits:            reg.Counter(prefix + "hits"),
		misses:          reg.Counter(prefix + "misses"),
		inserts:         reg.Counter(prefix + "inserts"),
		invalidations:   reg.Counter(prefix + "invalidations"),
		staleServed:     reg.Counter(prefix + "stale_served"),
		replayedInstrs:  reg.Counter(prefix + "replayed_instrs"),
		replayedLookups: reg.Counter(prefix + "replayed_lookups"),
	}
}

// DisableFlowCache removes the device's megaflow cache, so that every
// packet runs the linked pipeline. It is not a tuning knob: it is the
// differential oracle that the equivalence tests, E17's "dev telemetry"
// column and the serial benchmarks compare the default device against.
// Call it at build time, before SetMetrics
// (so no flowcache.* instruments are registered) and before traffic
// flows: the cache handle is read lock-free on the packet path.
func (d *Device) DisableFlowCache() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.fcache = nil
	d.fcMet = fcMetrics{}
}

// FlowCacheStats returns the cache's activity counters (zero Stats when
// the cache is disabled).
func (d *Device) FlowCacheStats() flowcache.Stats {
	if d.fcache == nil {
		return flowcache.Stats{}
	}
	return d.fcache.Stats()
}

// countDrop accounts a pre-pipeline drop (drain/down/parse/program
// error). mut updates the lifetime counters.
func (d *Device) countDrop(mut func(*Counters)) {
	d.bump(mut)
	d.met.dropped.Inc()
}

// accountProcessed runs the shared accounting tail for a fully processed
// packet (pipeline or cache replay): modelled latency, instruments, and
// lifetime counters.
func (d *Device) accountProcessed(st *ProcStats) {
	st.LatencyNs = d.cfg.Perf.BaseLatencyNs +
		d.cfg.Perf.PerInstrNs*uint64(st.Instrs) +
		d.cfg.Perf.PerLookupNs*uint64(st.Lookups)

	d.met.latency.Observe(int64(st.LatencyNs))
	d.met.packets.Inc()
	d.met.lookups.Add(uint64(st.Lookups))
	if st.Verdict == packet.VerdictDrop {
		d.met.dropped.Inc()
	}
	d.processed.Add(1)
	d.bump(func(c *Counters) { countVerdict(c, st.Verdict) })
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
	case packet.VerdictRecirculate:
		c.Recircs++
	}
}

// flowRecord is the capture scratch for one to-be-inserted cache entry.
type flowRecord struct {
	key  packet.FlowKey
	gens []flowcache.TableGen
	pre  []flowcache.FieldVal
	hdrs []string
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
	if e, ok := d.fcache.Lookup(key, cfg.epoch, pkt); ok {
		e.Replay(pkt)
		st.Verdict = e.Verdict
		st.Instrs = e.Instrs
		st.Lookups = e.Lookups
		st.Programs = e.Programs
		d.fcMet.hits.Inc()
		d.fcMet.replayedInstrs.Add(uint64(e.Instrs))
		d.fcMet.replayedLookups.Add(uint64(e.Lookups))
		return nil, true
	}
	d.fcMet.misses.Inc()
	// Capture the validation state before the pipeline mutates it.
	rec := &flowRecord{
		key:  key,
		gens: make([]flowcache.TableGen, len(fp.tables)),
		pre:  make([]flowcache.FieldVal, len(fp.fields)),
		hdrs: append([]string(nil), pkt.Headers...),
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

// recordFlow inserts the completed pipeline outcome into the cache.
// Only terminal Forward/Drop verdicts are recorded; errors, punts, and
// recirculations always take the pipeline.
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
		Programs:   append([]string(nil), st.Programs...),
	}
	for i, fid := range fp.writes {
		v, ok := pkt.FieldOKByID(fid)
		e.Post[i] = flowcache.FieldVal{FID: fid, Val: v, Present: ok}
	}
	d.fcache.Insert(rec.key, e)
	d.fcMet.inserts.Inc()
}
