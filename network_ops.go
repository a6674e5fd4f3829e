package flexnet

import (
	"context"
	"fmt"
	"time"

	"flexnet/internal/controller"
	"flexnet/internal/flexbpf/delta"
)

// This file is the context-first control API for Network. Every control
// operation takes a context.Context (cancellation rolls the in-flight
// plan back and surfaces context.Canceled) and an options struct whose
// zero value reproduces the old method's behaviour. Each struct carries
// a DryRun flag, replacing the former DryRun* method pairs: with DryRun
// set, the plan is built and validated but never executed, and the
// returned PlanReport lists every step with its estimated cost.
//
// This is the only control surface: the pre-context wrapper methods
// (DeployApp, MigrateApp, DryRunDeploy, ...) were removed after one
// deprecation cycle. Declarative alternatives live in spec_ops.go.

// DeployOptions controls Deploy. The zero value deploys for real with
// unrestricted placement.
type DeployOptions struct {
	// DryRun validates the deployment without touching the network.
	DryRun bool
}

// RemoveOptions controls Remove. The zero value removes for real.
type RemoveOptions struct {
	// DryRun validates the removal without executing it.
	DryRun bool
}

// MigrateRequest names a segment migration. The explicit DataPlane
// field replaces MigrateApp's bare trailing bool, which was unreadable
// at call sites.
type MigrateRequest struct {
	// URI and Segment select the app segment; its primary replica moves.
	URI, Segment string
	// Dst is the destination device.
	Dst string
	// DataPlane selects in-band dRPC state transfer; false uses the
	// control-plane baseline (export via controller, import at dst).
	DataPlane bool
	// DryRun validates the migration without executing it.
	DryRun bool
}

// ScaleDirection selects whether Scale adds or removes a replica.
type ScaleDirection int

const (
	// ScaleDirOut adds a replica on the requested device (the default).
	ScaleDirOut ScaleDirection = iota
	// ScaleDirIn removes the replica on the requested device.
	ScaleDirIn
)

// ScaleRequest names a replica change for Scale.
type ScaleRequest struct {
	// URI and Segment select the app segment.
	URI, Segment string
	// Device hosts the replica to add (ScaleDirOut) or drop (ScaleDirIn).
	// For ScaleDirOut it may be empty: the controller auto-places the
	// replica (path devices first, then the fabric, first fit).
	Device string
	// Direction defaults to ScaleDirOut.
	Direction ScaleDirection
	// DryRun validates the change without executing it.
	DryRun bool
}

// UpdateRequest names an incremental (§3.2 delta) program change.
type UpdateRequest struct {
	// URI and Segment select the app segment to change.
	URI, Segment string
	// Delta is the pattern-selected change set.
	Delta *Delta
	// DryRun validates the update (including the delta application and
	// re-verification) without executing it.
	DryRun bool
}

// DeltaReport describes which objects an applied Delta touched.
type DeltaReport = delta.Report

// Deploy deploys an application, advancing simulated time until the
// plan commits (or rolls back). It returns the executed plan's report;
// with opts.DryRun it returns the validation report without touching
// the network. Cancelling ctx mid-plan rolls the deployment back and
// the error reports context.Canceled.
func (n *Network) Deploy(ctx context.Context, uri string, spec AppSpec, opts DeployOptions) (*PlanReport, error) {
	dp := &Datapath{Name: uri, Segments: spec.Programs, SLA: spec.SLA, Owner: spec.Tenant}
	copts := controller.DeployOptions{Path: spec.Path, Tenant: spec.Tenant}
	if opts.DryRun {
		cp, _, err := n.ctl.PlanDeploy(uri, dp, copts)
		if err != nil {
			return nil, err
		}
		return n.ctl.DryRun(cp), nil
	}
	return n.await("deploy "+uri, 30*time.Second, func(done func(error)) { n.ctl.Deploy(ctx, uri, dp, copts, done) })
}

// Remove removes an application. See Deploy for execution, dry-run, and
// cancellation semantics.
func (n *Network) Remove(ctx context.Context, uri string, opts RemoveOptions) (*PlanReport, error) {
	if opts.DryRun {
		cp, err := n.ctl.PlanRemove(uri)
		if err != nil {
			return nil, err
		}
		return n.ctl.DryRun(cp), nil
	}
	return n.await("remove "+uri, 30*time.Second, func(done func(error)) { n.ctl.Remove(ctx, uri, done) })
}

// Migrate moves an app segment between devices, carrying its state
// in-band (req.DataPlane) or via the control-plane baseline. On
// failure or ctx cancellation the plan rolls back: the destination
// install is undone and the source stays authoritative. With
// req.DryRun the migration is validated only and the MigrationReport
// is zero.
func (n *Network) Migrate(ctx context.Context, req MigrateRequest) (MigrationReport, *PlanReport, error) {
	creq := controller.MigrateRequest{URI: req.URI, Segment: req.Segment, Dst: req.Dst, DataPlane: req.DataPlane}
	if req.DryRun {
		cp, err := n.ctl.PlanMigrate(creq)
		if err != nil {
			return MigrationReport{}, nil, err
		}
		return MigrationReport{}, n.ctl.DryRun(cp), nil
	}
	var rep MigrationReport
	planRep, err := n.await("migration of "+req.URI, 60*time.Second, func(done func(error)) {
		n.ctl.Migrate(ctx, creq, func(r MigrationReport) { rep = r; done(r.Err) })
	})
	return rep, planRep, err
}

// Scale adds (ScaleDirOut) or removes (ScaleDirIn) an app replica. See
// Deploy for execution, dry-run, and cancellation semantics.
func (n *Network) Scale(ctx context.Context, req ScaleRequest) (*PlanReport, error) {
	if req.DryRun {
		var cp *ChangePlan
		var err error
		if req.Direction == ScaleDirIn {
			cp, err = n.ctl.PlanScaleIn(req.URI, req.Segment, req.Device)
		} else {
			cp, _, err = n.ctl.PlanScaleOut(req.URI, req.Segment, req.Device)
		}
		if err != nil {
			return nil, err
		}
		return n.ctl.DryRun(cp), nil
	}
	return n.await("scale of "+req.URI, 30*time.Second, func(done func(error)) {
		if req.Direction == ScaleDirIn {
			n.ctl.ScaleIn(ctx, req.URI, req.Segment, req.Device, done)
		} else {
			n.ctl.ScaleOut(ctx, req.URI, req.Segment, req.Device, done)
		}
	})
}

// Update applies an incremental change to a deployed app segment, live
// and state-preserving. The DeltaReport lists the touched objects; with
// req.DryRun it is nil and only the plan validation report returns.
func (n *Network) Update(ctx context.Context, req UpdateRequest) (*DeltaReport, *PlanReport, error) {
	if req.DryRun {
		cp, _, err := n.ctl.PlanUpdate(req.URI, req.Segment, req.Delta)
		if err != nil {
			return nil, nil, err
		}
		return nil, n.ctl.DryRun(cp), nil
	}
	var rep *DeltaReport
	planRep, err := n.await("update of "+req.URI, 30*time.Second, func(done func(error)) {
		n.ctl.UpdateApp(ctx, req.URI, req.Segment, req.Delta, func(r *DeltaReport, e error) { rep = r; done(e) })
	})
	return rep, planRep, err
}

// DeleteTenant removes a tenant and every app it owns. Cancelling ctx
// mid-removal rolls the in-flight plan back.
func (n *Network) DeleteTenant(ctx context.Context, name string) error {
	_, err := n.await("tenant removal", 30*time.Second, func(done func(error)) { n.ctl.RemoveTenant(ctx, name, done) })
	return err
}

// await runs one control op until its callback fires and returns the
// op's error and its own plan's report, read in the callback: the
// controller sets LastReport just before it, while by the time waitFor
// returns another plan (a spec batch, a heal) may have finished. An op
// refused before planning leaves LastReport alone and gets nil.
func (n *Network) await(what string, budget time.Duration, op func(done func(error))) (*PlanReport, error) {
	before := n.ctl.LastReport()
	var rep *PlanReport
	var err error
	settled := false
	op(func(e error) {
		if r := n.ctl.LastReport(); r != before {
			rep = r
		}
		err, settled = e, true
	})
	n.waitFor(&settled, budget)
	if !settled {
		return nil, fmt.Errorf("flexnet: %s did not complete", what)
	}
	return rep, err
}

// NumWorkers returns 1: the simulator runs one event at a time
// (DESIGN.md §9). It stays only until benchmark/, which a product change
// may not edit, stops calling it.
func (n *Network) NumWorkers() int { return 1 }
