package controller

// This file is the controller half of FlexNet's declarative spec path
// (DESIGN.md §14): snapshotting live intent into the spec vocabulary,
// diffing it against a resolved spec, compiling the diff into a few
// batched ChangePlans, and the continuous-reconcile loop that keeps
// the network converged to the last applied spec.
//
// Plan compilation works in two waves so placement sees the truth:
//
//	shrink  app deletions and scale-downs (AllowDegraded — removals
//	        survive dead devices), executed first so their resources
//	        are free;
//	grow    creations, scale-ups and segment swaps, planned only
//	        after the shrink wave commits.
//
// Within a wave, items are grouped by device-footprint connectivity
// (union-find) and the groups are packed round-robin into at most
// MaxPlans batched plans. Groups in different plans share no device,
// so the executor's conflict admission (DESIGN.md §13.3) runs the
// wave's plans concurrently; batching many imperative ops per plan is
// what makes a mass change cost a handful of plans instead of
// hundreds (E19).

import (
	"context"
	"fmt"
	"sort"

	"flexnet/internal/audit"
	"flexnet/internal/compiler"
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
	// MaxPlans bounds the batched plans per wave (0 = DefaultSpecMaxPlans).
	MaxPlans int
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
// for a segment the datapath does not have), dumping the program only
// when the segment's *flexbpf.Program pointer differs from the one the
// remembered fingerprint was computed from. Comparing pointers is enough
// because a live program is never edited in place: Deploy, spec create,
// spec swap, the UpdateApp commit and Redeploy each put a new program
// in the segment, and delta.Apply and the compiler's merge pass edit
// clones (DESIGN.md §14.2).
func (c *Controller) liveFP(app *App, seg string) uint64 {
	p := app.Datapath.Segment(seg)
	if p == nil {
		return 0
	}
	sh := c.state.shardFor(uriOwner(app.URI))
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if m := app.fps[seg]; m.prog == p {
		return m.fp
	}
	if app.fps == nil {
		app.fps = map[string]segmentFP{}
	}
	fp := compiler.Fingerprint(p)
	app.fps[seg] = segmentFP{prog: p, fp: fp}
	return fp
}

// DiffSpec compares a resolved spec against live controller state.
func (c *Controller) DiffSpec(r *spec.Resolved) *spec.Diff {
	c.fab.Metrics.Counter("ctl.ops.spec_diff").Inc()
	return spec.Compute(r, c.LiveSpecState())
}

// CanonicalIntent renders the controller's live intent state in the
// audit replayer's canonical form — byte-identical to
// audit.Replay(...).Canonical() when the trail is complete.
func (c *Controller) CanonicalIntent() string {
	st := audit.NewIntentState()
	for _, t := range c.state.tenantNames() {
		st.Tenants[t] = true
	}
	for _, uri := range c.state.appURIs() {
		app := c.state.app(uri)
		if app == nil {
			continue
		}
		for seg, devs := range app.Replicas {
			for _, d := range devs {
				st.Add(instanceName(uri, seg), d)
			}
		}
	}
	return st.Canonical()
}

// specItem is one diff entry lowered to plan steps: the devices it
// touches (for footprint grouping), its placement-work charge, and the
// state mutation to apply if its plan commits.
type specItem struct {
	key     string // deterministic sort key
	devices []string
	scanned int
	segs    int
	steps   func(cp *plan.ChangePlan)
	apply   func()
}

// specBatch is one packed ChangePlan with the item applies it carries.
type specBatch struct {
	cp    *plan.ChangePlan
	apply []func()
}

// specShrinkItems lowers the diff's removals: whole-app deletions and
// replica scale-downs. Built from live state so reconcile re-applies
// are robust to drift since the diff was computed.
func (c *Controller) specShrinkItems(d *spec.Diff) []specItem {
	var items []specItem
	for _, uri := range d.Delete {
		uri := uri
		app := c.state.app(uri)
		if app == nil {
			continue // already gone
		}
		segs := make([]string, 0, len(app.Replicas))
		for seg := range app.Replicas {
			segs = append(segs, seg)
		}
		sort.Strings(segs)
		var devs []string
		for _, seg := range segs {
			devs = append(devs, app.Replicas[seg]...)
		}
		items = append(items, specItem{
			key:     "delete " + uri,
			devices: devs,
			steps: func(cp *plan.ChangePlan) {
				for _, seg := range segs {
					for _, dev := range app.Replicas[seg] {
						cp.Remove(dev, instanceName(uri, seg))
					}
				}
			},
			apply: func() {
				c.state.deleteApp(uri)
				if app.Tenant != "" {
					c.state.removeTenantApp(app.Tenant, uri)
				}
			},
		})
	}
	for _, sc := range d.ScaleDown {
		sc := sc
		app := c.state.app(sc.URI)
		if app == nil {
			continue
		}
		live := app.Replicas[sc.Segment]
		if len(live) <= sc.Seg.Scale {
			continue // drift since diff: already at/below target
		}
		victims := append([]string(nil), live[sc.Seg.Scale:]...)
		inst := instanceName(sc.URI, sc.Segment)
		items = append(items, specItem{
			key:     "scale-down " + sc.URI + "#" + sc.Segment,
			devices: victims,
			steps: func(cp *plan.ChangePlan) {
				// Newest replicas retire first; the primary survives.
				for i := len(victims) - 1; i >= 0; i-- {
					cp.Remove(victims[i], inst)
				}
			},
			apply: func() {
				app.Replicas[sc.Segment] = app.Replicas[sc.Segment][:sc.Seg.Scale]
			},
		})
	}
	return items
}

// specGrowItems lowers the diff's additions and retunes. Called only
// after the shrink wave committed, so placement sees freed resources
// and swap/scale items read post-shrink replica sets.
func (c *Controller) specGrowItems(d *spec.Diff) ([]specItem, error) {
	var items []specItem
	for _, ra := range d.Create {
		ra := ra
		if c.state.app(ra.URI) != nil {
			continue // drift since diff: already deployed
		}
		path := ra.Path
		if len(path) == 0 {
			path = nil
		}
		dp := ra.Datapath()
		targets, err := c.targetList(path)
		if err != nil {
			return nil, fmt.Errorf("spec: app %s: %w", ra.URI, err)
		}
		placement, err := c.comp.Compile(dp, targets, path)
		if err != nil {
			return nil, fmt.Errorf("spec: app %s: %w", ra.URI, err)
		}
		if err := compiler.CheckSLA(placement, dp); err != nil {
			return nil, fmt.Errorf("spec: app %s: %w", ra.URI, err)
		}
		filter := c.tenantFilter(ra.Tenant)
		replicas := map[string][]string{}
		for _, a := range placement.Assignments {
			replicas[a.Segment] = []string{a.Device}
		}
		scanned := placement.TargetsScanned
		// Extra replicas past each segment's primary.
		var extras []plan.Step
		for i := range ra.Segments {
			seg := &ra.Segments[i]
			exclude := map[string]bool{}
			for _, dv := range replicas[seg.Name] {
				exclude[dv] = true
			}
			for n := 1; n < seg.Scale; n++ {
				dev, sc, err := compiler.PlaceSegment(dp.Segment(seg.Name), c.targets.list(), path, exclude)
				if err != nil {
					return nil, fmt.Errorf("spec: app %s segment %s replica %d: %w", ra.URI, seg.Name, n+1, err)
				}
				scanned += sc
				exclude[dev] = true
				replicas[seg.Name] = append(replicas[seg.Name], dev)
				extras = append(extras, plan.Step{
					Op: plan.OpInstallInstance, Device: dev,
					Instance: instanceName(ra.URI, seg.Name),
					Program:  dp.Segment(seg.Name), Filter: filter,
				})
			}
		}
		var devs []string
		for _, a := range placement.Assignments {
			devs = append(devs, a.Device)
		}
		for _, s := range extras {
			devs = append(devs, s.Device)
		}
		items = append(items, specItem{
			key:     "create " + ra.URI,
			devices: devs,
			scanned: scanned,
			segs:    len(ra.Segments),
			steps: func(cp *plan.ChangePlan) {
				for _, a := range placement.Assignments {
					cp.Install(a.Device, instanceName(ra.URI, a.Segment), dp.Segment(a.Segment), filter, 0)
				}
				cp.Steps = append(cp.Steps, extras...)
			},
			apply: func() {
				app := &App{
					URI:      ra.URI,
					Tenant:   ra.Tenant,
					Datapath: dp,
					Plan:     placement,
					Path:     path,
					Replicas: replicas,
					Status:   StatusRunning,
				}
				c.state.putApp(app)
				if ra.Tenant != "" {
					c.state.addTenantApp(ra.Tenant, ra.URI)
				}
			},
		})
	}
	// Swaps before scale-ups in key order is irrelevant for correctness
	// (scale-up installs already use the desired program), but keep one
	// deterministic order anyway.
	for _, sw := range d.Swap {
		sw := sw
		app := c.state.app(sw.URI)
		if app == nil {
			continue
		}
		if c.liveFP(app, sw.Segment) == sw.Seg.FP {
			continue // drift since diff: already retuned
		}
		devs := append([]string(nil), app.Replicas[sw.Segment]...)
		if len(devs) == 0 {
			continue
		}
		filter := c.tenantFilter(app.Tenant)
		inst := instanceName(sw.URI, sw.Segment)
		items = append(items, specItem{
			key:     "swap " + sw.URI + "#" + sw.Segment,
			devices: devs,
			segs:    1,
			steps: func(cp *plan.ChangePlan) {
				for _, dev := range devs {
					cp.Swap(dev, inst, sw.Seg.Program, filter)
				}
			},
			apply: func() {
				for i, s := range app.Datapath.Segments {
					if s.Name == sw.Segment {
						app.Datapath.Segments[i] = sw.Seg.Program
					}
				}
			},
		})
	}
	for _, su := range d.ScaleUp {
		su := su
		app := c.state.app(su.URI)
		if app == nil {
			continue
		}
		live := app.Replicas[su.Segment]
		delta := su.Seg.Scale - len(live)
		if delta <= 0 {
			continue
		}
		// Install the *desired* program: if this segment is also being
		// retuned, the swap item covers existing replicas and new ones
		// start on the new program directly.
		prog := su.Seg.Program
		filter := c.tenantFilter(app.Tenant)
		inst := instanceName(su.URI, su.Segment)
		exclude := map[string]bool{}
		for _, dv := range live {
			exclude[dv] = true
		}
		var devs []string
		scanned := 0
		path := app.Path
		for n := 0; n < delta; n++ {
			dev, sc, err := compiler.PlaceSegment(prog, c.targets.list(), path, exclude)
			if err != nil {
				return nil, fmt.Errorf("spec: scale-up %s#%s: %w", su.URI, su.Segment, err)
			}
			scanned += sc
			exclude[dev] = true
			devs = append(devs, dev)
		}
		items = append(items, specItem{
			key:     "scale-up " + su.URI + "#" + su.Segment,
			devices: devs,
			scanned: scanned,
			segs:    1,
			steps: func(cp *plan.ChangePlan) {
				for _, dev := range devs {
					cp.Install(dev, inst, prog, filter, 0)
				}
			},
			apply: func() {
				app.Replicas[su.Segment] = append(app.Replicas[su.Segment], devs...)
			},
		})
	}
	return items, nil
}

// packSpecPlans groups items into device-footprint components
// (union-find: items sharing any device must share a plan, because the
// executor serializes overlapping footprints anyway) and packs the
// components round-robin into at most maxPlans batched ChangePlans.
// Plans in the result share no device, so conflict admission runs them
// concurrently.
func (c *Controller) packSpecPlans(items []specItem, wave, origin string, degraded bool, maxPlans int) []*specBatch {
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
		for _, dev := range it.devices {
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

	n := maxPlans
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
			items[i].steps(b.cp)
			if items[i].apply != nil {
				b.apply = append(b.apply, items[i].apply)
			}
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
		c.exec.ExecuteCtx(ctx, b.cp, func(r *plan.Report) {
			c.lastReport = r
			rep.Plans = append(rep.Plans, r)
			if r.Err != nil {
				if firstErr == nil {
					firstErr = r.Err
				}
			} else {
				for _, f := range b.apply {
					f()
				}
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
	maxPlans := opts.MaxPlans
	if maxPlans <= 0 {
		maxPlans = DefaultSpecMaxPlans
	}
	if opts.DryRun {
		d := c.DiffSpec(r)
		rep := &SpecReport{Version: r.Version, Diff: d, Ops: d.Ops()}
		for _, b := range c.packSpecPlans(c.specShrinkItems(d), "shrink", r.Version, true, maxPlans) {
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
	settle := func(err error) {
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

	for _, t := range d.AddTenants {
		if _, err := c.AddTenant(t); err != nil {
			settle(err)
			return
		}
	}
	shrink := c.packSpecPlans(c.specShrinkItems(d), "shrink", r.Version, true, maxPlans)
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
		grow := c.packSpecPlans(items, "grow", r.Version, false, maxPlans)
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

// SpecReconciler is the continuous-reconcile loop: each period it
// re-diffs the last applied spec against live state and re-applies it
// when anything drifted (an imperative mutation, a failed partial
// apply). The gitops analogue of the self-healer — heal.go repairs
// devices back to controller intent; this repairs controller intent
// back to the declared spec.
type SpecReconciler struct {
	c      *Controller
	ticker *netsim.Ticker
	// Applies counts corrective applies; LastErr is the most recent
	// apply error (nil when converged).
	Applies int
	LastErr error
}

// StartSpecReconcile begins the loop. Off by default, so spec-free runs
// are byte-identical with or without this code.
func (c *Controller) StartSpecReconcile(every netsim.Time) *SpecReconciler {
	r := &SpecReconciler{c: c}
	r.ticker = c.fab.Sim.Every(every, r.tick)
	return r
}

// Stop halts the loop (an in-flight corrective apply still finishes).
func (r *SpecReconciler) Stop() { r.ticker.Stop() }

func (r *SpecReconciler) tick() {
	c := r.c
	c.specMu.Lock()
	last := c.lastSpec
	busy := c.specApply
	c.specMu.Unlock()
	if last == nil || busy {
		return
	}
	if c.DiffSpec(last).Empty() {
		return
	}
	c.fab.Metrics.Counter("ctl.spec.reconciles").Inc()
	c.ApplySpec(context.Background(), last, SpecOptions{}, func(_ *SpecReport, err error) {
		r.Applies++
		r.LastErr = err
	})
}
