package controller

import (
	"context"
	"fmt"

	"flexnet/internal/errdefs"
	"flexnet/internal/flexbpf"
	"flexnet/internal/flexbpf/delta"
	"flexnet/internal/plan"
)

// PlanUpdate applies a delta to one segment's logical program and builds
// the swap plan over every hosting replica. The delta report is returned
// alongside the plan; nothing is executed.
// Resource (grow-in-place) and verifier checks happen in the executor's
// validate phase.
//
// An update is in-place by contract: the placement is recompiled
// incrementally against the app's previous plan, and if the grown
// program no longer fits on its current devices — the recompiler would
// have to move it — the update is rejected with ErrInsufficientResources
// rather than silently relocating live instances. Callers then Migrate
// (or Redeploy) first, which owns move semantics.
func (c *Controller) PlanUpdate(uri, segment string, d *delta.Delta) (*plan.ChangePlan, *delta.Report, error) {
	cp, _, rep, err := c.planUpdate(uri, segment, d)
	return cp, rep, err
}

func (c *Controller) planUpdate(uri, segment string, d *delta.Delta) (*plan.ChangePlan, item, *delta.Report, error) {
	app := c.state.app(uri)
	if app == nil {
		return nil, item{}, nil, errNoApp(uri)
	}
	seg := app.Datapath.Segment(segment)
	if seg == nil {
		return nil, item{}, nil, fmt.Errorf("controller: app %q has no segment %q: %w", uri, segment, errdefs.ErrNoSuchApp)
	}
	newProg, rep, err := delta.Apply(seg, d)
	if err != nil {
		return nil, item{}, nil, err
	}
	if len(app.Replicas[segment]) == 0 {
		return nil, item{}, nil, fmt.Errorf("controller: app %q segment %q not placed: %w", uri, segment, errdefs.ErrNoSuchApp)
	}
	// Re-place the updated datapath against the previous plan. Segments
	// the delta didn't touch must keep their devices; the updated one
	// must grow in place.
	newDP := &flexbpf.Datapath{Name: app.Datapath.Name, Owner: app.Datapath.Owner, SLA: app.Datapath.SLA,
		Segments: append([]*flexbpf.Program(nil), app.Datapath.Segments...)}
	setSegment(newDP, segment, newProg)
	inc, scanned, segs, err := c.placeDatapath(app, newDP)
	if err != nil {
		return nil, item{}, nil, err
	}
	if inc.Moves > 0 || len(inc.Place) > 0 {
		return nil, item{}, nil, fmt.Errorf(
			"controller: update of %s/%s no longer fits in place (%d segment(s) would move); migrate first: %w",
			uri, segment, len(inc.Place), errdefs.ErrInsufficientResources)
	}
	it := c.swapItem(app, segment, newProg)
	it.scanned, it.segs = scanned, segs
	return c.planOf(fmt.Sprintf("update %s#%s", uri, segment), it), it, rep, nil
}

// UpdateApp applies an incremental change (a §3.2 delta) to one segment
// of a deployed app, live:
//
//  1. The delta is applied to the segment's logical program and the
//     result re-verified.
//  2. The placement is recompiled incrementally: untouched segments stay
//     put, the updated segment must grow in place (a change that no
//     longer fits fails without touching the network — callers can then
//     Migrate first). The plan's validate phase re-checks free resources
//     on the hosting devices.
//  3. Each replica swaps old→new atomically — all replicas at one
//     simulated instant — carrying over the state of every stateful
//     object that survives the delta. Any failure rolls every replica
//     back to the old program, state intact.
//
// done receives the per-application report and the first error.
func (c *Controller) UpdateApp(ctx context.Context, uri, segment string, d *delta.Delta, done func(*delta.Report, error)) {
	cp, it, rep, err := c.planUpdate(uri, segment, d)
	c.change(ctx, "update", StatusChanging, cp, it, err, func(err error) {
		if done != nil {
			done(rep, err)
		}
	})
}
