package controller

// This file is the controller half of FlexNet's declarative spec path
// (DESIGN.md §14): snapshotting live intent into the spec vocabulary,
// diffing it against a resolved spec, compiling the diff into a few
// batched ChangePlans, and the drift view against the last applied
// spec.
//
// Plan compilation works in two waves so placement sees the truth:
//
//	shrink  app deletions and scale-downs (AllowDegraded — removals
//	        survive dead devices), executed first so their resources
//	        are free;
//	grow    creations, scale-ups and segment swaps, planned only
//	        after the shrink wave commits.
//
// Each diff entry is lowered by the same item builder its imperative op
// uses (controller.go). Within a wave, items are grouped by
// device-footprint connectivity (union-find) and the groups are packed
// round-robin into at most DefaultSpecMaxPlans batched plans. Groups in
// different plans share no device, so the executor's conflict admission
// (DESIGN.md §13.3) runs the wave's plans concurrently; batching many
// imperative ops per plan is what makes a mass change cost a handful of
// plans instead of hundreds (E19).

import (
	"context"
	"fmt"
	"sort"

	"flexnet/internal/audit"
	"flexnet/internal/netsim"
	"flexnet/internal/plan"
	"flexnet/internal/spec"
)

// DefaultSpecMaxPlans bounds the batched plans emitted per wave.
const DefaultSpecMaxPlans = 4

// SpecOptions tunes a declarative apply.
type SpecOptions struct {
	// DryRun computes the diff and validates the shrink wave without
	// executing anything; grow placements are not computed (they
	// depend on resources the shrink wave frees).
	DryRun bool
}

// SpecReport describes one declarative apply.
type SpecReport struct {
	// Version is the spec revision applied.
	Version string
	// Diff is the change set that was compiled.
	Diff *spec.Diff
	// Ops is the imperative per-op call count the diff covers — the
	// baseline the batched PlansEmitted is measured against.
	Ops int
	// Plans holds every executed (or, dry-run, validated) plan report.
	Plans []*plan.Report
	// PlansEmitted is len(Plans) for real applies.
	PlansEmitted int
	// Elapsed is the simulated convergence time.
	Elapsed netsim.Time
}

// LiveSpecState snapshots the controller's intent — tenants, apps,
// per-segment program fingerprints and replica sets — into the spec
// differ's live model. Deterministic: tenants and apps in sorted order.
func (c *Controller) LiveSpecState() *spec.Live {
	live := &spec.Live{
		Tenants: c.state.tenantNames(),
		Apps:    map[string]*spec.LiveApp{},
	}
	for _, uri := range c.state.appURIs() {
		app := c.state.app(uri)
		if app == nil {
			continue
		}
		la := &spec.LiveApp{
			Tenant:   app.Tenant,
			Path:     append([]string(nil), app.Path...),
			Segments: map[string]spec.LiveSegment{},
		}
		for seg, devs := range app.Replicas {
			la.Segments[seg] = spec.LiveSegment{FP: c.liveFP(app, seg), Replicas: append([]string(nil), devs...)}
		}
		live.Apps[uri] = la
	}
	return live
}

// liveFP returns compiler.Fingerprint of app's live segment program (0
// for a segment the datapath does not have), hashing the program only
// when the segment's *flexbpf.Program pointer differs from the one the
// remembered fingerprint was computed from. Comparing pointers is enough
// because a live program is never edited in place: a segment gets a new
// program only from setSegment or with a whole new datapath, and
// delta.Apply and the compiler's merge pass edit clones (DESIGN.md
// §14.2).
func (c *Controller) liveFP(app *App, seg string) uint64 {
	p := app.Datapath.Segment(seg)
	if p == nil {
		return 0
	}
	c.state.mu.Lock()
	defer c.state.mu.Unlock()
	if m := app.fps[seg]; m.prog == p {
		return m.fp
	}
	if app.fps == nil {
		app.fps = map[string]segmentFP{}
	}
	fp := fingerprint(p)
	app.fps[seg] = segmentFP{prog: p, fp: fp}
	return fp
}

// DiffSpec compares a resolved spec against live controller state.
func (c *Controller) DiffSpec(r *spec.Resolved) *spec.Diff {
	c.fab.Metrics.Counter("ctl.ops.spec_diff").Inc()
	return spec.Compute(r, c.LiveSpecState())
}

// CanonicalIntent renders the tenants and the desired state (heal.go)
// in the audit replayer's canonical form — byte-identical to
// audit.Replay(...).Canonical() when the trail is complete.
func (c *Controller) CanonicalIntent() string {
	st := audit.NewIntentState()
	for _, t := range c.state.tenantNames() {
		st.Tenants[t] = true
	}
	for dev, as := range c.desired() {
		for _, a := range as {
			st.Add(a.inst, dev)
		}
	}
	return st.Canonical()
}

// specBatch is one packed ChangePlan with the item applies it carries.
type specBatch struct {
	cp    *plan.ChangePlan
	apply []func()
}

// specShrinkItems lowers the diff's removals: whole-app deletions and
// replica scale-downs. Built from live state so reconcile re-applies
// are robust to drift since the diff was computed.
func (c *Controller) specShrinkItems(d *spec.Diff) []item {
	var items []item
	for _, uri := range d.Delete {
		if app := c.state.app(uri); app != nil { // else already gone
			items = append(items, c.removeItem(app))
		}
	}
	for _, sc := range d.ScaleDown {
		app := c.state.app(sc.URI)
		if app == nil {
			continue
		}
		// Newest replicas retire first; the primary survives. Drift since
		// the diff may have left nothing above the target.
		live := app.Replicas[sc.Segment]
		var victims []string
		for i := len(live) - 1; i >= sc.Seg.Scale; i-- {
			victims = append(victims, live[i])
		}
		if len(victims) > 0 {
			items = append(items, c.dropReplicasItem(app, sc.Segment, victims))
		}
	}
	return items
}

// specGrowItems lowers the diff's additions and retunes. Called only
// after the shrink wave committed, so placement sees freed resources
// and swap/scale items read post-shrink replica sets. It is the one
// place a resolved spec's programs are copied: each item installs a
// private clone (ResolvedSegment.Program, ResolvedApp.Datapath).
func (c *Controller) specGrowItems(d *spec.Diff) ([]item, error) {
	var items []item
	for _, ra := range d.Create {
		if c.state.app(ra.URI) != nil {
			continue // drift since diff: already deployed
		}
		path := ra.Path
		if len(path) == 0 {
			path = nil
		}
		scale := make(map[string]int, len(ra.Segments))
		for _, s := range ra.Segments {
			scale[s.Name] = s.Scale
		}
		it, err := c.createItem(ra.URI, ra.Tenant, ra.Datapath(), path, scale)
		if err != nil {
			return nil, fmt.Errorf("spec: app %s: %w", ra.URI, err)
		}
		items = append(items, it)
	}
	for _, sw := range d.Swap {
		app := c.state.app(sw.URI)
		if app == nil || c.liveFP(app, sw.Segment) == sw.Seg.FP() || len(app.Replicas[sw.Segment]) == 0 {
			continue // drift since diff: gone, already retuned or unplaced
		}
		items = append(items, c.swapItem(app, sw.Segment, sw.Seg.Program()))
	}
	for _, su := range d.ScaleUp {
		app := c.state.app(su.URI)
		if app == nil {
			continue
		}
		// Install the *desired* program: if this segment is also being
		// retuned, the swap item covers existing replicas and new ones
		// start on the new program directly.
		live := app.Replicas[su.Segment]
		prog := su.Seg.Program()
		devs, scanned, err := c.placeReplicas(prog, app.Path, live, su.Seg.Scale-len(live))
		if err != nil {
			return nil, fmt.Errorf("spec: scale-up %s#%s: %w", su.URI, su.Segment, err)
		}
		if len(devs) > 0 {
			items = append(items, c.addReplicasItem(app, su.Segment, prog, devs, scanned))
		}
	}
	return items, nil
}

// packSpecPlans groups items into device-footprint components
// (union-find: items sharing any device must share a plan, because the
// executor serializes overlapping footprints anyway) and packs the
// components round-robin into at most DefaultSpecMaxPlans batched
// ChangePlans.
// Plans in the result share no device, so conflict admission runs them
// concurrently.
func (c *Controller) packSpecPlans(items []item, wave, origin string, degraded bool) []*specBatch {
	if len(items) == 0 {
		return nil
	}
	sort.Slice(items, func(i, j int) bool { return items[i].key < items[j].key })

	// Union-find over item indices, keyed by shared devices.
	parent := make([]int, len(items))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	owner := map[string]int{}
	for i, it := range items {
		for _, s := range it.steps {
			dev := s.Device
			if j, ok := owner[dev]; ok {
				ri, rj := find(i), find(j)
				if ri != rj {
					if rj < ri {
						ri, rj = rj, ri
					}
					parent[rj] = ri // smaller index wins: deterministic roots
				}
			} else {
				owner[dev] = i
			}
		}
	}
	comps := map[int][]int{}
	var roots []int
	for i := range items {
		r := find(i)
		if _, ok := comps[r]; !ok {
			roots = append(roots, r)
		}
		comps[r] = append(comps[r], i)
	}
	sort.Ints(roots)

	n := DefaultSpecMaxPlans
	if len(roots) < n {
		n = len(roots)
	}
	batches := make([]*specBatch, n)
	type acc struct{ scanned, segs int }
	charges := make([]acc, n)
	for bi := range batches {
		cp := plan.New(fmt.Sprintf("spec %s %s[%d]", origin, wave, bi))
		cp.Origin = "spec:" + origin
		cp.AllowDegraded = degraded
		batches[bi] = &specBatch{cp: cp}
	}
	for ci, r := range roots {
		b := batches[ci%n]
		for _, i := range comps[r] {
			b.cp.Steps = append(b.cp.Steps, items[i].steps...)
			b.apply = append(b.apply, items[i].apply)
			charges[ci%n].scanned += items[i].scanned
			charges[ci%n].segs += items[i].segs
		}
	}
	for bi, b := range batches {
		b.cp.Planning(c.planningCharge(charges[bi].scanned, charges[bi].segs))
	}
	return batches
}

// runSpecWave executes a wave's batches (concurrently where footprints
// allow — always, by construction) and fires done with the first error
// once every batch settled. Committed batches apply their items' state
// mutations before done.
func (c *Controller) runSpecWave(ctx context.Context, batches []*specBatch, rep *SpecReport, done func(error)) {
	if len(batches) == 0 {
		done(nil)
		return
	}
	remaining := len(batches)
	var firstErr error
	for _, b := range batches {
		b := b
		apply := func() {
			for _, f := range b.apply {
				f()
			}
		}
		c.run(ctx, b.cp, nil, apply, func(r *plan.Report) {
			rep.Plans = append(rep.Plans, r)
			if r.Err != nil && firstErr == nil {
				firstErr = r.Err
			}
			remaining--
			if remaining == 0 {
				done(firstErr)
			}
		})
	}
}

// ApplySpec converges the network to a resolved spec: tenants are
// admitted, the diff is compiled into shrink- and grow-wave batched
// plans (see the file comment), departed tenants are released, and the
// applied revision is recorded in the audit trail. done fires once the
// network matches the spec (or with the first error; committed batches
// stay committed — re-apply to continue converging).
//
// Applying the same spec twice is a no-op: the second diff is empty
// and zero plans are emitted.
func (c *Controller) ApplySpec(ctx context.Context, r *spec.Resolved, opts SpecOptions, done func(*SpecReport, error)) {
	if opts.DryRun {
		d := c.DiffSpec(r)
		rep := &SpecReport{Version: r.Version, Diff: d, Ops: d.Ops()}
		for _, b := range c.packSpecPlans(c.specShrinkItems(d), "shrink", r.Version, true) {
			rep.Plans = append(rep.Plans, c.exec.Validate(b.cp))
		}
		rep.PlansEmitted = len(rep.Plans)
		if done != nil {
			done(rep, nil)
		}
		return
	}

	count := c.instrument("spec_apply", nil)
	finish := func(rep *SpecReport, err error) {
		c.specMu.Lock()
		c.specApply = false
		c.specMu.Unlock()
		count(err)
		if done != nil {
			done(rep, err)
		}
	}
	c.specMu.Lock()
	if c.specApply {
		c.specMu.Unlock()
		count(errSpecBusy)
		if done != nil {
			done(nil, errSpecBusy)
		}
		return
	}
	c.specApply = true
	c.specMu.Unlock()

	start := c.fab.Sim.Now()
	d := c.DiffSpec(r)
	rep := &SpecReport{Version: r.Version, Diff: d, Ops: d.Ops()}
	var claimed []*App
	settle := func(err error) {
		c.release(claimed...)
		rep.PlansEmitted = len(rep.Plans)
		rep.Elapsed = c.fab.Sim.Now() - start
		if err == nil {
			c.specMu.Lock()
			c.lastSpec = r
			c.lastSpecAt = c.fab.Sim.Now()
			c.specMu.Unlock()
		}
		finish(rep, err)
	}
	if d.Empty() {
		settle(nil)
		return
	}
	// The apply is one change to every live app its diff touches; the
	// apps it creates register running when their plan commits.
	var touched []*App
	touch := func(uri string) {
		if app := c.state.app(uri); app != nil {
			touched = append(touched, app)
		}
	}
	for _, uri := range d.Delete {
		touch(uri)
	}
	for _, sw := range d.Swap {
		touch(sw.URI)
	}
	for _, sc := range d.ScaleUp {
		touch(sc.URI)
	}
	for _, sc := range d.ScaleDown {
		touch(sc.URI)
	}
	if err := c.claim(StatusChanging, touched...); err != nil {
		settle(err)
		return
	}
	claimed = touched

	for _, t := range d.AddTenants {
		if _, err := c.AddTenant(t); err != nil {
			settle(err)
			return
		}
	}
	shrink := c.packSpecPlans(c.specShrinkItems(d), "shrink", r.Version, true)
	c.runSpecWave(ctx, shrink, rep, func(err error) {
		if err != nil {
			settle(err)
			return
		}
		items, err := c.specGrowItems(d)
		if err != nil {
			settle(err)
			return
		}
		grow := c.packSpecPlans(items, "grow", r.Version, false)
		c.runSpecWave(ctx, grow, rep, func(err error) {
			if err != nil {
				settle(err)
				return
			}
			var firstErr error
			for _, t := range d.RemoveTenants {
				// Shrink already deleted the tenant's apps, so this
				// settles synchronously.
				c.RemoveTenant(ctx, t, func(e error) {
					if e != nil && firstErr == nil {
						firstErr = e
					}
				})
			}
			if firstErr == nil {
				c.audit.Append(audit.Record{
					Kind:        "spec-apply",
					SpecVersion: r.Version,
					Origin:      "spec:" + r.Version,
				})
			}
			settle(firstErr)
		})
	})
}

var errSpecBusy = fmt.Errorf("controller: a spec apply is already in flight")

// SpecStatus is the declarative-intent view flexctl spec status shows.
type SpecStatus struct {
	// Version of the last successfully applied spec ("" before any).
	Version string
	// AppliedAt is the simulated time of that apply.
	AppliedAt netsim.Time
	// InSync reports whether live state still matches the spec.
	InSync bool
	// Drift lists the divergences when not in sync (diff summary lines).
	Drift []string
	// AuditRecords / AuditHead describe the mutation trail.
	AuditRecords int
	AuditHead    string
}

// SpecStatus reports the last applied spec and whether live state has
// drifted from it.
func (c *Controller) SpecStatus() SpecStatus {
	c.specMu.Lock()
	last := c.lastSpec
	at := c.lastSpecAt
	c.specMu.Unlock()
	st := SpecStatus{
		AuditRecords: c.audit.Len(),
		AuditHead:    c.audit.Head(),
	}
	if last == nil {
		return st
	}
	st.Version = last.Version
	st.AppliedAt = at
	d := spec.Compute(last, c.LiveSpecState())
	st.InSync = d.Empty()
	if !st.InSync {
		st.Drift = d.Summary()
	}
	return st
}
