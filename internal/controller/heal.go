package controller

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"flexnet/internal/dataplane"
	"flexnet/internal/fabric"
	"flexnet/internal/flexbpf"
	"flexnet/internal/netsim"
	"flexnet/internal/plan"
)

// Healer is the controller's reconciler (DESIGN.md §10.3). Each scan
// period it lowers an up device's difference from the desired state
// (desired) into one "reconcile <dev>" plan with Origin "heal" — infra
// routing if missing, missing instances, orphans, route refresh — and
// runs it through Controller.run. A device is reconciled when it has an
// unhandled crash generation, even while other plans run (success
// records MTTR), or when it drifted and the executor is quiescent (no
// MTTR). Orphans are removed only by a plan lowered at quiescence:
// mid-plan, a migration's destination holds its instance before
// Replicas names it.
//
// The healer is off until StartHealer is called, and its "heal.*"
// instruments are created on the first reconcile, so fault-free runs
// are byte-identical with or without this code. Per-flow state that
// lived only on a crashed device died with it; reconciliation restores
// committed intent (programs, filters, routing entries).
type Healer struct {
	c *Controller
	// handled maps device → last crash generation reconciled.
	handled map[string]uint64
	// inflight guards against double-reconciling a device whose plan is
	// still in the executor queue.
	inflight map[string]bool

	// MTTRs records each crash recovery's crash→reconciled latency in
	// simulated nanoseconds, in recovery order.
	MTTRs []uint64
}

// StartHealer begins the reconciliation loop, scanning every device
// each period for as long as the simulation runs. Call once; the
// returned Healer exposes recovery stats.
func (c *Controller) StartHealer(every netsim.Time) *Healer {
	h := &Healer{c: c, handled: map[string]uint64{}, inflight: map[string]bool{}}
	c.fab.Sim.Every(every, h.scan)
	return h
}

// Pending returns the devices with an unreconciled crash generation —
// empty once the healer has caught up with every restart. Devices that
// are still down are pending too: they cannot be reconciled until they
// restart.
func (h *Healer) Pending() []string {
	var out []string
	for _, name := range h.c.fab.Devices() {
		d := h.c.fab.Device(name)
		if d.DownGen() > h.handled[name] {
			out = append(out, name)
		}
	}
	return out
}

// Recovered returns the number of completed crash recoveries.
func (h *Healer) Recovered() int { return len(h.MTTRs) }

// scan is one tick: reconcile every device a trigger names. Devices()
// is sorted, so the order — and therefore the executor queue and all
// downstream telemetry — is deterministic.
func (h *Healer) scan() {
	quiet, want := h.c.exec.Idle(), h.c.desired()
	for _, name := range h.c.fab.Devices() {
		d := h.c.fab.Device(name)
		gen := d.DownGen()
		crashed := gen > h.handled[name]
		if d.Down() || h.inflight[name] || !crashed && !quiet {
			continue
		}
		missing, orphans := drift(d, want[name])
		if !quiet {
			orphans = nil
		}
		if !crashed && len(missing)+len(orphans) == 0 {
			continue
		}
		h.reconcile(name, d, crashed, gen, missing, orphans)
	}
}

// reconcile runs one device's reconcile plan. A crash reconcile that
// succeeds marks gen handled and records the crash→now latency as MTTR;
// on failure (e.g. the device crashed again mid-plan) nothing is
// marked, so the next scan retries.
func (h *Healer) reconcile(name string, d *dataplane.Device, crashed bool, gen uint64, missing []assignment, orphans []string) {
	crashedAt := d.LastDownAt()
	cp := plan.New("reconcile " + name)
	cp.Origin = "heal"
	if d.Instance(fabric.InfraProgramName) == nil {
		// First, so the RouteUpdate step has a table to write.
		cp.Install(name, fabric.InfraProgramName, fabric.InfraRoutingProgram(), nil, dataplane.PriorityInfra)
	}
	for _, a := range missing {
		if a.prog != nil {
			cp.Install(name, a.inst, a.prog, a.filter, 0)
		}
	}
	installs := len(cp.Steps)
	for _, inst := range orphans {
		cp.Remove(name, inst)
	}
	cp.RouteUpdate()
	h.inflight[name] = true
	met := h.c.fab.Metrics
	met.Counter("heal.reconciles").Inc()
	h.c.run(context.Background(), cp, nil, nil, func(r *plan.Report) {
		h.inflight[name] = false
		if r.Err != nil || r.Outcome != plan.OutcomeSucceeded {
			met.Counter("heal.failures").Inc()
			return
		}
		met.Counter("heal.reinstalled_programs").Add(uint64(installs))
		if !crashed {
			return
		}
		h.handled[name] = gen
		mttr := uint64(h.c.fab.Sim.Now()) - crashedAt
		h.MTTRs = append(h.MTTRs, mttr)
		met.Counter("heal.recovered").Inc()
		met.Histogram("heal.mttr_ns").Observe(int64(mttr))
	})
}

// assignment is one app instance committed intent assigns to a device.
type assignment struct {
	inst   string // instanceName(uri, segment)
	prog   *flexbpf.Program
	filter *flexbpf.Cond
}

// desired is the one answer to "what should device d hold?": per
// device, the app instances committed intent assigns to it, over every
// registered app in sorted URI → segment → replica order. IntentDrift
// diffs it against the devices, CanonicalIntent renders it, and the
// healer lowers each device's difference from it. The infra routing
// program is device inventory, not intent, so it is not in it.
func (c *Controller) desired() map[string][]assignment {
	want := map[string][]assignment{}
	for _, uri := range c.Apps() {
		app := c.state.app(uri)
		filter := c.tenantFilter(app.Tenant)
		for _, seg := range app.segments() {
			a := assignment{inst: instanceName(uri, seg), prog: app.Datapath.Segment(seg), filter: filter}
			for _, dev := range app.Replicas[seg] {
				want[dev] = append(want[dev], a)
			}
		}
	}
	return want
}

// drift diffs device d against want, its desired assignments: the
// assignments d lacks, in want's order, and the app instances
// ("<uri>#<segment>") d holds that want does not name, in chain order.
func drift(d *dataplane.Device, want []assignment) (missing []assignment, orphans []string) {
	progs := d.Programs()
	have := make(map[string]bool, len(progs))
	for _, p := range progs {
		have[p] = true
	}
	wanted := make(map[string]bool, len(want))
	for _, a := range want {
		wanted[a.inst] = true
		if !have[a.inst] {
			missing = append(missing, a)
		}
	}
	for _, p := range progs {
		if uri, _, ok := strings.Cut(p, "#"); ok && ValidURI(uri) && !wanted[p] {
			orphans = append(orphans, p)
		}
	}
	return missing, orphans
}

// IntentDrift diffs the desired state against the devices and returns
// the sorted discrepancies: "device s1 missing instance <uri>#<seg>",
// "device s2 has orphan instance …" (an app instance intent does not
// assign to s2), or "device s9 unknown (app …)". Empty means the network
// holds exactly what was committed; operators read it via heal-status.
func (c *Controller) IntentDrift() []string {
	want := c.desired()
	var out []string
	for dev, as := range want {
		if c.fab.Device(dev) == nil {
			for _, a := range as {
				out = append(out, fmt.Sprintf("device %s unknown (app %s)", dev, a.inst))
			}
		}
	}
	for _, dev := range c.fab.Devices() {
		missing, orphans := drift(c.fab.Device(dev), want[dev])
		for _, a := range missing {
			out = append(out, fmt.Sprintf("device %s missing instance %s", dev, a.inst))
		}
		for _, inst := range orphans {
			out = append(out, fmt.Sprintf("device %s has orphan instance %s", dev, inst))
		}
	}
	sort.Strings(out)
	return out
}
