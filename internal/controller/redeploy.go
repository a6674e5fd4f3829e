package controller

import (
	"context"
	"fmt"
	"sort"

	"flexnet/internal/compiler"
	"flexnet/internal/errdefs"
	"flexnet/internal/flexbpf"
	"flexnet/internal/plan"
)

// placeDatapath recompiles the placement of app's datapath for a new
// version newDP, in the controller's current placement mode:
//
//   - Incremental (default): compiler.Recompile morphs the app's
//     previous plan, touching only what the version change touched.
//   - Full baseline: the whole placement is recomputed from scratch with
//     the app's own occupancy refunded per device (compiler.RefundTarget),
//     then diffed against the previous plan into the same IncrementalPlan
//     shape. This is the O(fabric) path E18 contrasts against.
//
// The two extra results feed planningCharge: candidate targets scanned
// and segment placements recompiled.
func (c *Controller) placeDatapath(app *App, newDP *flexbpf.Datapath) (*compiler.IncrementalPlan, int, int, error) {
	if c.incremental {
		// The recompiler sees the whole fabric: migrations may have
		// carried the app off its deploy path, and grow-in-place must
		// find the *current* devices. app.Path stays a candidate-order
		// preference for anything that does need placing.
		inc, err := c.comp.Recompile(app.Plan, app.Datapath, newDP, c.targets.list(), app.Path)
		if err != nil {
			return nil, 0, 0, err
		}
		d := compiler.Diff(app.Datapath, newDP)
		segs := len(d.Added) + len(d.Removed) + len(d.Changed) + inc.Moves
		if segs == 0 {
			// Demand-neutral change: still one placement decision (the
			// recompiler verified everything stays put).
			segs = 1
		}
		return inc, inc.TargetsScanned, segs, nil
	}
	// Full recompute baseline: replan from scratch over the entire
	// fabric's target list (the pre-§13 controller behavior — every
	// operation re-examined every device; app.Path still constrains
	// which devices are usable), refunding this app's own footprint so
	// the compiler sees the resources a from-scratch placement could
	// reuse.
	targets := c.targets.list()
	refund := map[string]flexbpf.Demand{}
	for seg, devs := range app.Replicas {
		d := flexbpf.ProgramDemand(app.Datapath.Segment(seg))
		for _, dev := range devs {
			refund[dev] = refund[dev].Add(d)
		}
	}
	overlaid := make([]compiler.Target, len(targets))
	for i, t := range targets {
		if r, ok := refund[t.Name()]; ok {
			overlaid[i] = &compiler.RefundTarget{Target: t, Refund: r}
		} else {
			overlaid[i] = t
		}
	}
	full, err := c.comp.Compile(newDP, overlaid, app.Path)
	if err != nil {
		return nil, 0, 0, err
	}
	inc := &compiler.IncrementalPlan{Iterations: full.Iterations, TargetsScanned: full.TargetsScanned}
	inNew := map[string]bool{}
	for _, a := range full.Assignments {
		inNew[a.Segment] = true
		prev := app.Plan.DeviceFor(a.Segment)
		if prev == a.Device {
			inc.Keep = append(inc.Keep, a)
			continue
		}
		inc.Place = append(inc.Place, a)
		if prev != "" {
			inc.Moves++
		}
	}
	for _, s := range app.Datapath.Segments {
		if !inNew[s.Name] {
			inc.Remove = append(inc.Remove, compiler.Assignment{Segment: s.Name, Device: app.Plan.DeviceFor(s.Name)})
		}
	}
	return inc, full.TargetsScanned, len(newDP.Segments), nil
}

// PlanRedeploy builds the transition plan from an app's current datapath
// to a new version, with full move semantics (unlike UpdateApp, which is
// in-place only):
//
//   - removed segments are uninstalled (every replica);
//   - kept segments whose content changed swap in place on every replica;
//   - segments the recompiler moved transfer to their new device —
//     content-unchanged moves install at the destination and migrate
//     state, content-changed moves reinstall fresh;
//   - added segments install on their assigned device.
//
// The returned IncrementalPlan is the placement decision the change plan
// realizes; Redeploy commits it to the app record on success.
func (c *Controller) PlanRedeploy(uri string, newDP *flexbpf.Datapath) (*plan.ChangePlan, *compiler.IncrementalPlan, error) {
	app := c.state.app(uri)
	if app == nil {
		return nil, nil, errNoApp(uri)
	}
	if app.Plan == nil {
		return nil, nil, fmt.Errorf("controller: app %q has no placement plan: %w", uri, errdefs.ErrNoSuchApp)
	}
	inc, scanned, segs, err := c.placeDatapath(app, newDP)
	if err != nil {
		return nil, nil, err
	}
	// A segment changed unless its live fingerprint (remembered, see
	// liveFP) equals the new program's. Fingerprint hashes inline do
	// blocks instruction by instruction, so a changed immediate counts.
	changed := func(name string) bool {
		n := newDP.Segment(name)
		if app.Datapath.Segment(name) == nil || n == nil {
			return true
		}
		return c.liveFP(app, name) != fingerprint(n)
	}
	filter := c.tenantFilter(app.Tenant)
	cp := plan.New("redeploy " + uri)
	for _, a := range inc.Remove {
		cp.Steps = append(cp.Steps, c.dropReplicasItem(app, a.Segment, app.Replicas[a.Segment]).steps...)
	}
	for _, a := range inc.Keep {
		if changed(a.Segment) {
			cp.Steps = append(cp.Steps, c.swapItem(app, a.Segment, newDP.Segment(a.Segment)).steps...)
		}
	}
	for _, a := range inc.Place {
		inst := instanceName(uri, a.Segment)
		prev := app.Plan.DeviceFor(a.Segment)
		switch {
		case prev == "":
			// Newly added segment.
			cp.Install(a.Device, inst, newDP.Segment(a.Segment), filter, 0)
		case !changed(a.Segment):
			// Moved, content unchanged: carry the state along.
			cp.Install(a.Device, inst, newDP.Segment(a.Segment), filter, 0)
			cp.MigrateState(inst, prev, a.Device, false)
		default:
			// Moved and rewritten: old state is for the old program;
			// start fresh at the destination.
			cp.Remove(prev, inst)
			cp.Install(a.Device, inst, newDP.Segment(a.Segment), filter, 0)
			// Surviving extra replicas still swap to the new content.
			for _, dev := range app.Replicas[a.Segment] {
				if dev != prev {
					cp.Swap(dev, inst, newDP.Segment(a.Segment), filter)
				}
			}
		}
	}
	cp.Planning(c.planningCharge(scanned, segs))
	return cp, inc, nil
}

// Redeploy transitions a deployed app to a new datapath version,
// recompiling its placement (incrementally by default) and moving,
// swapping, adding, and removing instances as the new placement
// requires. On success the app record reflects the new version; on
// failure the rollback restores every device and the old version stays
// authoritative.
func (c *Controller) Redeploy(ctx context.Context, uri string, newDP *flexbpf.Datapath, done func(error)) {
	cp, inc, err := c.PlanRedeploy(uri, newDP)
	app := c.state.app(uri)
	c.change(ctx, "redeploy", StatusChanging, cp, item{app: app, apply: func() {
		// Commit the new logical view and placement.
		assigns := make([]compiler.Assignment, 0, len(inc.Keep)+len(inc.Place))
		assigns = append(assigns, inc.Keep...)
		assigns = append(assigns, inc.Place...)
		sort.Slice(assigns, func(i, j int) bool { return assigns[i].Segment < assigns[j].Segment })
		replicas := map[string][]string{}
		for _, a := range assigns {
			prev := app.Plan.DeviceFor(a.Segment)
			devs := []string{a.Device}
			// Extra replicas of kept segments survive; a moved primary
			// keeps its extras too (they still serve traffic).
			for _, d := range app.Replicas[a.Segment] {
				if d != prev && d != a.Device {
					devs = append(devs, d)
				}
			}
			replicas[a.Segment] = devs
		}
		app.Datapath = newDP
		app.Plan = &compiler.Plan{Assignments: assigns, Iterations: inc.Iterations, TargetsScanned: inc.TargetsScanned}
		app.Replicas = replicas
	}}, err, done)
}
