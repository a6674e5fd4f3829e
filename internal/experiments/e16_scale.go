package experiments

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"time"

	"flexnet/internal/fabric"
	"flexnet/internal/flexbpf"
	"flexnet/internal/plan"
)

// E16ScaleOut grows generated fabrics from tens of devices to a k=16
// fat-tree (320 switches, 1024 hosts) and compares the incremental
// routing engine (DESIGN.md §11) against full recomputation for single
// link failures at each tier. The work metric is routes recomputed
// (destinations re-solved × devices routing to them); delta writes
// counts table entries actually changed. After every incremental
// converge the experiment forces a full recompute on the same state and
// checks the route tables are byte-identical — the delta path must
// never drift from ground truth. Plan-commit latency for a one-device
// change is measured at every scale: with per-destination route state
// keyed for deltas, commit cost stays flat as the fabric grows instead
// of scaling O(network).
func E16ScaleOut(seed int64) *Table {
	t := &Table{
		ID:      "E16",
		Title:   "Scale-out: incremental routing vs full recompute on generated fabrics",
		Claim:   "\"networks must evolve at runtime\" (§1) — control operations must not cost O(network) as fabrics grow",
		Columns: []string{"topology", "switches", "hosts", "event", "dirty dests", "routes recomputed", "full recompute", "ratio", "delta writes", "tables", "plan commit"},
	}

	// tableFingerprint hashes every device's published route table in
	// device order. Byte-identical tables ⇒ identical fingerprints; the
	// entry encoding includes every match/action field, so any drift in
	// content or order changes the hash.
	tableFingerprint := func(f *fabric.Fabric) uint64 {
		h := fnv.New64a()
		var buf [8]byte
		w64 := func(v uint64) { binary.LittleEndian.PutUint64(buf[:], v); h.Write(buf[:]) }
		for _, dev := range f.Devices() {
			h.Write([]byte(dev))
			inst := f.Device(dev).Instance(fabric.InfraProgramName)
			if inst == nil {
				continue
			}
			for _, e := range inst.Table(fabric.RouteTableName).Entries() {
				w64(uint64(e.Priority))
				for _, m := range e.Match {
					w64(m.Value)
					w64(m.Mask)
					w64(uint64(m.PrefixLen))
					w64(m.Hi)
				}
				h.Write([]byte(e.Action))
				for _, p := range e.Params {
					w64(p)
				}
			}
		}
		return h.Sum64()
	}

	type linkEvent struct{ name, a, b string }
	type topo struct {
		label  string
		build  func(*fabric.Fabric) error
		events []linkEvent
	}
	fatTree := func(k int) func(*fabric.Fabric) error {
		return func(f *fabric.Fabric) error { return fabric.BuildFatTree(f, fabric.FatTreeSpec{K: k}) }
	}
	// Primary links carry every BFS tree that crosses them, so downing
	// one legitimately dirties everything routing through it; redundant
	// links (the common failure in a multipath fabric) are tree edges
	// only for nearby destinations. Agg j's core group is c[j·k/2 ...],
	// so the redundant agg–core pick is the last core in agg 1's group.
	ftEvents := func(k int) []linkEvent {
		return []linkEvent{
			{"host link down", "p0-e0-h0", "p0-e0"},
			{"edge–agg primary down", "p0-e0", "p0-a0"},
			{"edge–agg redundant down", "p0-e1", "p0-a1"},
			{"agg–core primary down", "p0-a0", "c0"},
			{"agg–core redundant down", "p0-a1", fmt.Sprintf("c%d", k-1)},
		}
	}
	topos := []topo{
		{"fat-tree k=4", fatTree(4), ftEvents(4)},
		{"fat-tree k=8", fatTree(8), ftEvents(8)},
		{"fat-tree k=16", fatTree(16), ftEvents(16)},
		{"spine-leaf 4×16", func(f *fabric.Fabric) error {
			return fabric.BuildSpineLeaf(f, fabric.SpineLeafSpec{Spines: 4, Leaves: 16, HostsPerLeaf: 16})
		}, []linkEvent{
			{"host link down", "l0-h0", "l0"},
			{"leaf–spine primary down", "l0", "s0"},
			{"leaf–spine redundant down", "l1", "s1"},
		}},
	}

	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	// The one-device change whose commit latency is measured per scale.
	probe := flexbpf.NewProgram("e16probe").
		Action("deny", 0, flexbpf.NewAsm().Drop().MustBuild()).
		Table(&flexbpf.TableSpec{
			Name:    "blocklist",
			Keys:    []flexbpf.TableKey{{Field: "ipv4.src", Kind: flexbpf.MatchExact, Bits: 32}},
			Actions: []string{"deny"},
			Size:    16,
		}).
		Apply("blocklist").
		MustBuild()

	var worstHostRatio, worstCommit float64
	mismatches, totalEvents := 0, 0
	for _, tp := range topos {
		f := fabric.New(seed)
		must(tp.build(f))
		must(f.InstallBaseRouting())
		full := f.RouteStats()
		switches, hosts := len(f.Devices()), len(f.Hosts())

		// Plan-commit latency for a one-switch change at this scale. The
		// RouteUpdate refreshes every device.
		x := newExecutor(f)
		var rep *plan.Report
		x.Execute(plan.New("e16-probe").Install(f.Devices()[0], "e16probe", probe, nil, 10).RouteUpdate(),
			func(r *plan.Report) { rep = r })
		f.Sim.RunFor(2 * time.Second)
		if rep == nil || rep.Err != nil {
			panic(fmt.Sprintf("e16: probe plan on %s: %v", tp.label, rep.Err))
		}
		commit := float64(rep.Actual) / float64(time.Millisecond)
		if commit > worstCommit {
			worstCommit = commit
		}

		t.Rows = append(t.Rows, []string{
			tp.label, di(switches), di(hosts), "initial build",
			di(full.RecomputedDests), di(full.RecomputedRoutes), di(full.RecomputedRoutes),
			"1×", di(full.DeltaWrites), "—", fmt.Sprintf("%.2fms", commit),
		})

		for _, ev := range tp.events {
			totalEvents++
			l := f.Net.LinkBetween(ev.a, ev.b)
			if l == nil {
				panic(fmt.Sprintf("e16: no link %s–%s in %s", ev.a, ev.b, tp.label))
			}
			l.SetDown(true)
			must(f.RefreshRoutes())
			incr := f.RouteStats()
			before := tableFingerprint(f)
			must(f.RefreshRoutesFull())
			fullNow := f.RouteStats()
			after := tableFingerprint(f)
			identical := "identical"
			if before != after {
				identical = "DIFFER"
				mismatches++
			}
			denom := incr.RecomputedRoutes
			if denom == 0 {
				denom = 1
			}
			ratio := float64(fullNow.RecomputedRoutes) / float64(denom)
			if ev.name == "host link down" && (worstHostRatio == 0 || ratio < worstHostRatio) {
				worstHostRatio = ratio
			}
			t.Rows = append(t.Rows, []string{
				tp.label, di(switches), di(hosts), ev.name,
				di(incr.RecomputedDests), di(incr.RecomputedRoutes), di(fullNow.RecomputedRoutes),
				fmt.Sprintf("%.1f×", ratio), di(incr.DeltaWrites), identical, "—",
			})
			l.SetDown(false)
			must(f.RefreshRoutes())
		}
	}
	t.Finding = fmt.Sprintf("single-link events recompute a shrinking fraction of route state as fabrics grow (host-link events ≥%.0f× cheaper than full recompute at every scale, %d/%d table fingerprints identical to ground truth); one-device plan commit stays ≤%.2fms from 20 to 1344 nodes",
		worstHostRatio, totalEvents-mismatches, totalEvents, worstCommit)
	return t
}
