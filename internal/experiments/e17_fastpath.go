package experiments

import (
	"fmt"
	"time"

	"flexnet/internal/dataplane"
	"flexnet/internal/fabric"
	"flexnet/internal/netsim"
	"flexnet/internal/packet"
)

// E17FastPath exercises the megaflow flow cache (DESIGN.md §12) on a
// single DRMT switch carrying 1–64 concurrent CBR flows. Each flow count
// runs twice over identically seeded fabrics — "off" on the
// SetFlowCache(false) oracle, "on" on the default fabric — and the
// experiment reports the cache hit rate and the work the cache replayed
// instead of executing (instructions and table lookups).
// The "dev telemetry" column compares the default run's device counters
// and delivery count against the oracle's: replay reproduces the
// per-packet accounting exactly, so they must be identical — benchdiff
// fails CI on any other word in that column.
//
// Every column is computed from simulated-time quantities and
// deterministic counters, so the table is byte-identical at a seed.
// Wall-clock speedups are measured separately by the steady-state
// pipeline benchmarks (BENCH_PR7.md).
func E17FastPath(seed int64) *Table {
	t := &Table{
		ID:      "E17",
		Title:   "Fast path: megaflow flow cache",
		Claim:   "\"process packets at line rate\" (§1) — the software model must amortize per-packet costs to keep simulated fabrics fast without changing observable behavior",
		Columns: []string{"cache", "flows", "pkts delivered", "hit %", "replayed instrs", "lookups saved", "dev telemetry"},
	}

	const pps = 20000
	const runFor = 250 * time.Millisecond

	type measure struct {
		received  uint64
		hits      uint64
		misses    uint64
		instrs    uint64
		lookups   uint64
		processed uint64
		devLook   uint64
		dropped   uint64
	}
	run := func(cache bool, flows int) measure {
		f := fabric.New(seed)
		f.SetFlowCache(cache)
		f.AddSwitch("sw", dataplane.ArchDRMT)
		// One ingress host (and link) per flow: same-phase CBR sources
		// reach the switch at identical timestamps instead of queueing
		// behind one shared ingress link.
		f.AddHost("h2", packet.IP(10, 0, 255, 2))
		f.Connect("sw", "h2", netsim.DefaultLink())
		for i := 0; i < flows; i++ {
			name := fmt.Sprintf("h1-%d", i)
			f.AddHost(name, packet.IP(10, 0, byte(i/250), byte(1+i%250)))
			f.Connect(name, "sw", netsim.DefaultLink())
		}
		if err := f.InstallBaseRouting(); err != nil {
			panic(err)
		}
		for i := 0; i < flows; i++ {
			src := f.Host(fmt.Sprintf("h1-%d", i)).NewSource(netsim.FlowSpec{
				Dst: packet.IP(10, 0, 255, 2), Proto: packet.ProtoUDP,
				SrcPort: uint16(1000 + i), DstPort: 2000, PacketLen: 400,
			})
			src.StartCBR(pps)
		}
		f.Sim.RunUntil(netsim.Time(runFor))
		var m measure
		m.received = f.Host("h2").Received
		st := f.Device("sw").FlowCacheStats()
		m.hits, m.misses = st.Hits, st.Misses
		m.instrs = f.Metrics.Counter("flowcache.sw.replayed_instrs").Value()
		m.lookups = f.Metrics.Counter("flowcache.sw.replayed_lookups").Value()
		m.processed = f.Metrics.Counter("dev.sw.packets_processed").Value()
		m.devLook = f.Metrics.Counter("dev.sw.table_lookups").Value()
		m.dropped = f.Metrics.Counter("dev.sw.packets_dropped").Value()
		return m
	}

	minHit := 100.0
	for _, flows := range []int{1, 8, 64} {
		off := run(false, flows)
		on := run(true, flows)
		ident := "identical"
		if off.received != on.received || off.processed != on.processed ||
			off.devLook != on.devLook || off.dropped != on.dropped {
			ident = "DIFFER"
		}
		hitPct := 0.0
		if on.hits+on.misses > 0 {
			hitPct = 100 * float64(on.hits) / float64(on.hits+on.misses)
		}
		if hitPct < minHit {
			minHit = hitPct
		}
		t.Rows = append(t.Rows,
			[]string{"off", di(flows), d(off.received), "—", "0", "0", "—"},
			[]string{"on", di(flows), d(on.received), f2(hitPct), d(on.instrs), d(on.lookups), ident},
		)
	}
	t.Finding = fmt.Sprintf("the flow cache serves ≥%.2f%% of steady-state packets from one exact-match lookup while device counters and deliveries stay identical to the uncached run", minHit)
	return t
}
