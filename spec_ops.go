package flexnet

import (
	"context"
	"time"

	"flexnet/internal/audit"
	"flexnet/internal/controller"
	"flexnet/internal/spec"
)

// This file is the declarative control surface: instead of imperative
// Deploy/Scale/Migrate calls, the operator declares the desired network
// in a versioned spec (YAML or JSON) and the controller converges live
// state onto it with a minimal batched plan set. Every mutation — spec
// or imperative — lands in an append-only hash-chained audit trail that
// can be replayed into the exact intent state the controller holds.

// Declarative-spec re-exports.
type (
	// NetworkSpec is a parsed declarative network spec: tenants, apps,
	// per-segment builtin kinds with args and scale counts.
	NetworkSpec = spec.Spec
	// ResolvedSpec is a NetworkSpec with every segment instantiated
	// into a concrete fingerprinted program.
	ResolvedSpec = spec.Resolved
	// SpecDiff is the change set between a spec and live state.
	SpecDiff = spec.Diff
	// SpecReport describes one declarative apply: the diff, the batched
	// plans emitted, and the simulated convergence time.
	SpecReport = controller.SpecReport
	// SpecStatusInfo is the drift view: last applied revision and
	// whether live state still matches it.
	SpecStatusInfo = controller.SpecStatus
	// AuditLog is the append-only hash-chained mutation trail.
	AuditLog = audit.Log
	// AuditRecord is one entry in the trail.
	AuditRecord = audit.Record
	// IntentState is intent reconstructed by replaying the trail.
	IntentState = audit.IntentState
)

// Spec helpers re-exported from the library.
var (
	// LoadSpec parses and validates a YAML or JSON spec document.
	LoadSpec = spec.Load
	// LoadSpecFile reads and parses a spec file.
	LoadSpecFile = spec.LoadFile
	// ResolveSpec instantiates every segment's builtin app kind of a
	// spec LoadSpec returned (it does not validate the spec again).
	ResolveSpec = spec.Resolve
	// ReplayAudit folds a verified audit chain into intent state.
	ReplayAudit = audit.Replay
)

// SpecApplyRequest controls ApplySpec. Exactly one of Source or
// Resolved must be set.
type SpecApplyRequest struct {
	// Source is the raw YAML or JSON spec document.
	Source []byte
	// Resolved short-circuits parsing when the caller already resolved
	// the spec (e.g. to diff it first).
	Resolved *ResolvedSpec
	// DryRun computes the diff and validates the shrink wave without
	// executing anything.
	DryRun bool
}

// SpecDiffRequest controls DiffSpec.
type SpecDiffRequest struct {
	// Source is the raw YAML or JSON spec document.
	Source []byte
	// Resolved short-circuits parsing, as in SpecApplyRequest.
	Resolved *ResolvedSpec
}

func (r *SpecApplyRequest) resolve() (*ResolvedSpec, error) {
	if r.Resolved != nil {
		return r.Resolved, nil
	}
	s, err := spec.Load(r.Source)
	if err != nil {
		return nil, err
	}
	return spec.Resolve(s)
}

// ApplySpec converges the network onto the declared spec: parse,
// resolve, diff against live state, and execute a minimal batched plan
// set (shrink wave first, then grow, so new placements see freed
// resources). Synchronous: simulated time advances until convergence.
// Applying the same spec twice is a no-op emitting zero plans.
func (n *Network) ApplySpec(ctx context.Context, req SpecApplyRequest) (*SpecReport, error) {
	r, err := req.resolve()
	if err != nil {
		return nil, err
	}
	opts := controller.SpecOptions{DryRun: req.DryRun}
	var (
		rep      *SpecReport
		applyErr error
		done     bool
	)
	n.ctl.ApplySpec(ctx, r, opts, func(sr *SpecReport, err error) {
		rep, applyErr, done = sr, err, true
	})
	if !req.DryRun {
		n.waitFor(&done, 120*time.Second)
	}
	if !done {
		return rep, context.DeadlineExceeded
	}
	return rep, applyErr
}

// DiffSpec compares a spec against live controller state without
// changing anything. The returned diff's Summary() is the human view;
// Empty() means the network already matches the spec.
func (n *Network) DiffSpec(req SpecDiffRequest) (*SpecDiff, error) {
	r := req.Resolved
	if r == nil {
		s, err := spec.Load(req.Source)
		if err != nil {
			return nil, err
		}
		if r, err = spec.Resolve(s); err != nil {
			return nil, err
		}
	}
	return n.ctl.DiffSpec(r), nil
}

// SpecStatus reports the last applied spec revision and whether live
// state has drifted from it.
func (n *Network) SpecStatus() SpecStatusInfo { return n.ctl.SpecStatus() }

// Audit returns the append-only hash-chained trail of every
// control-plane mutation: plans at commit/rollback, tenant changes,
// and spec applies. Verify with Audit().Verify(); reconstruct intent
// with ReplayAudit(Audit().Records()).
func (n *Network) Audit() *AuditLog { return n.ctl.Audit() }

// CanonicalIntent renders the controller's live intent in the audit
// replayer's canonical form — byte-identical to the replayed trail's
// Canonical() when the trail is complete.
func (n *Network) CanonicalIntent() string { return n.ctl.CanonicalIntent() }
