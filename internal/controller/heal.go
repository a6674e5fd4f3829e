package controller

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"flexnet/internal/dataplane"
	"flexnet/internal/fabric"
	"flexnet/internal/netsim"
	"flexnet/internal/plan"
	"flexnet/internal/telemetry"
)

// Healer is the controller's self-healing reconciliation loop
// (DESIGN.md §10): on a fixed period it scans every device for crash
// generations it has not yet handled, diffs the controller's desired
// intent (the infra routing program plus every committed app replica
// assigned to the device) against what the restarted device actually
// holds, and executes a ChangePlan that reinstalls whatever is missing
// and refreshes routes. Each reconciliation goes through the ordinary
// transactional executor and leaves an ordinary plan report.
//
// The healer is off until StartHealer is called, so fault-free runs are
// byte-identical with or without this code. All its telemetry
// instruments ("heal.*") are created lazily on the first actual
// recovery for the same reason.
//
// Per-flow application state that lived only on the crashed device is
// not resurrected — it died with the hardware. Reconciliation restores
// committed intent (programs, filters, routing entries), which is
// exactly what the controller promised to keep installed.
type Healer struct {
	c      *Controller
	ticker *netsim.Ticker
	// handled maps device → last crash generation reconciled.
	handled map[string]uint64
	// inflight guards against double-reconciling a device whose plan is
	// still in the executor queue.
	inflight map[string]bool

	// MTTRs records each recovery's crash→reconciled latency in
	// simulated nanoseconds, in recovery order.
	MTTRs []uint64
	// Reports holds every reconciliation plan report, oldest first.
	Reports []*plan.Report
	// OnRecover, when set, fires after a device's reconciliation
	// commits.
	OnRecover func(device string, rep *plan.Report)
}

// StartHealer begins the reconciliation loop, scanning every device
// each period. Call once; the returned Healer exposes recovery stats.
func (c *Controller) StartHealer(every netsim.Time) *Healer {
	h := &Healer{
		c:        c,
		handled:  map[string]uint64{},
		inflight: map[string]bool{},
	}
	h.ticker = c.fab.Sim.Every(every, h.scan)
	return h
}

// Stop halts the loop (in-flight reconciliations still finish).
func (h *Healer) Stop() { h.ticker.Stop() }

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

// Recovered returns the number of completed reconciliations.
func (h *Healer) Recovered() int { return len(h.MTTRs) }

// scan is one tick: find restarted devices with unhandled crash
// generations and reconcile them. Devices() is sorted, so the order —
// and therefore the executor queue and all downstream telemetry — is
// deterministic.
func (h *Healer) scan() {
	for _, name := range h.c.fab.Devices() {
		d := h.c.fab.Device(name)
		gen := d.DownGen()
		if gen <= h.handled[name] || d.Down() || h.inflight[name] {
			continue
		}
		h.reconcile(name, d, gen)
	}
}

// reconcile rebuilds one restarted device: install the infra routing
// program and every app instance the controller's intent assigns to the
// device, then refresh routes. On success the crash generation is
// marked handled and the crash→now latency is recorded as MTTR; on
// failure (e.g. the device crashed again mid-plan) nothing is marked,
// so the next scan retries.
func (h *Healer) reconcile(name string, d *dataplane.Device, gen uint64) {
	crashedAt := d.LastDownAt()
	cp := h.desiredPlan(name, d)
	h.inflight[name] = true
	met := h.c.fab.Metrics
	met.Counter("heal.reconciles").Inc()
	installs := 0
	for _, s := range cp.Steps {
		if s.Op == plan.OpInstallInstance {
			installs++
		}
	}
	h.c.exec.ExecuteCtx(context.Background(), cp, func(r *plan.Report) {
		h.inflight[name] = false
		h.Reports = append(h.Reports, r)
		if r.Err != nil || r.Outcome != plan.OutcomeSucceeded {
			met.Counter("heal.failures").Inc()
			return
		}
		h.handled[name] = gen
		mttr := uint64(h.c.fab.Sim.Now()) - crashedAt
		h.MTTRs = append(h.MTTRs, mttr)
		met.Counter("heal.recovered").Inc()
		met.Counter("heal.reinstalled_programs").Add(uint64(installs))
		met.Histogram("heal.mttr_ns", telemetry.DefaultLatencyBounds).Observe(int64(mttr))
		if h.OnRecover != nil {
			h.OnRecover(name, r)
		}
	})
}

// desiredPlan diffs intent against the device's live state: infra
// routing first (so the RouteUpdate step has a table to write), then
// every app replica assigned to this device in sorted app/segment order
// for determinism.
func (h *Healer) desiredPlan(name string, d *dataplane.Device) *plan.ChangePlan {
	cp := plan.New("reconcile " + name)
	cp.Origin = "heal"
	have := map[string]bool{}
	for _, p := range d.Programs() {
		have[p] = true
	}
	if !have[fabric.InfraProgramName] {
		cp.Install(name, fabric.InfraProgramName, fabric.InfraRoutingProgram(), nil, dataplane.PriorityInfra)
	}
	for _, uri := range h.c.Apps() {
		app := h.c.state.app(uri)
		for _, seg := range app.segments() {
			for _, dev := range app.Replicas[seg] {
				if dev != name {
					continue
				}
				inst := instanceName(uri, seg)
				if have[inst] {
					continue
				}
				prog := app.Datapath.Segment(seg)
				if prog == nil {
					continue
				}
				cp.Install(name, inst, prog, h.c.tenantFilter(app.Tenant), 0)
			}
		}
	}
	cp.RouteUpdate()
	return cp
}

// IntentDrift compares the controller's committed intent against live
// device state and returns a sorted list of discrepancies — an assigned
// instance a device lacks ("device s1 missing instance
// flexnet://t/app#seg") or an app instance a device holds that intent
// does not assign to it ("device s2 has orphan instance …") — empty when
// the network holds exactly what was committed. The chaos soak gate
// asserts this is empty after recovery; operators can read it through
// flexnetd's status op.
func (c *Controller) IntentDrift() []string {
	var out []string
	assigned := map[string]bool{} // "<device> <instance>"
	for _, uri := range c.Apps() {
		app := c.state.app(uri)
		for _, seg := range app.segments() {
			inst := instanceName(uri, seg)
			for _, dev := range app.Replicas[seg] {
				assigned[dev+" "+inst] = true
				d := c.fab.Device(dev)
				if d == nil {
					out = append(out, fmt.Sprintf("device %s unknown (app %s#%s)", dev, uri, seg))
					continue
				}
				if d.Instance(inst) == nil {
					out = append(out, fmt.Sprintf("device %s missing instance %s", dev, inst))
				}
			}
		}
	}
	for _, dev := range c.fab.Devices() {
		for _, prog := range c.fab.Device(dev).Programs() {
			if uri, _, ok := strings.Cut(prog, "#"); ok && ValidURI(uri) && !assigned[dev+" "+prog] {
				out = append(out, fmt.Sprintf("device %s has orphan instance %s", dev, prog))
			}
		}
	}
	sort.Strings(out)
	return out
}
