// Package api is the single source of truth for the management-plane
// operation names shared by flexnetd (the JSON-lines daemon) and
// flexctl (its CLI): one canonical table of op names and summaries.
// See DESIGN.md §14.4 for the surface it names.
package api

import "sort"

// Canonical operation names. flexnetd dispatches on these and flexctl
// subcommands map onto them 1:1 (verb groups like "flexctl spec apply"
// join with a dash: "spec-apply").
const (
	OpStatus       = "status"
	OpDevices      = "devices"
	OpDeploy       = "deploy"
	OpRemove       = "remove"
	OpMigrate      = "migrate"
	OpScaleOut     = "scale-out"
	OpScaleIn      = "scale-in"
	OpTenantAdd    = "tenant-add"
	OpTenantRemove = "tenant-remove"
	OpTraffic      = "traffic"
	OpTrafficStop  = "traffic-stop"
	OpRun          = "run"
	OpStats        = "stats"
	OpTrace        = "trace"
	OpReport       = "report"
	OpFaults       = "faults"
	OpHeal         = "heal"
	OpHealStatus   = "heal-status"
	OpSpecApply    = "spec-apply"
	OpSpecDiff     = "spec-diff"
	OpSpecStatus   = "spec-status"
	OpAudit        = "audit"
	OpAuditVerify  = "audit-verify"
	OpAuditReplay  = "audit-replay"
	OpHAStatus     = "ha-status"
	OpHAFailover   = "ha-failover"
)

// Ops maps every canonical op to its one-line summary — the shared
// help text for flexctl usage and the flexnetd protocol doc.
var Ops = map[string]string{
	OpStatus:       "controller status",
	OpDevices:      "per-device resources",
	OpDeploy:       "deploy a builtin app at a URI",
	OpRemove:       "remove a deployed app",
	OpMigrate:      "move an app segment to another device",
	OpScaleOut:     "add a replica on a device",
	OpScaleIn:      "remove a replica from a device",
	OpTenantAdd:    "admit a tenant",
	OpTenantRemove: "remove a tenant and its apps",
	OpTraffic:      "start a CBR traffic source",
	OpTrafficStop:  "stop all traffic sources",
	OpRun:          "advance simulated time",
	OpStats:        "telemetry snapshot (all metrics)",
	OpTrace:        "plan execution trace",
	OpReport:       "last executed plan's report",
	OpFaults:       "inject a JSON fault schedule",
	OpHeal:         "start the controller's self-healing loop",
	OpHealStatus:   "recoveries, pending crashes, intent drift",
	OpSpecApply:    "converge the network onto a declarative spec",
	OpSpecDiff:     "diff a declarative spec against live state",
	OpSpecStatus:   "last applied spec revision and drift",
	OpAudit:        "tail the append-only mutation audit trail",
	OpAuditVerify:  "verify the audit trail's hash chain",
	OpAuditReplay:  "replay the trail and compare against live intent",
	OpHAStatus:     "controller replica roles, terms, and log watermarks",
	OpHAFailover:   "kill the serving leader and fail over to a standby",
}

// Known reports whether op is a canonical op name. Nothing else is
// accepted: the pre-dash spellings of earlier releases are unknown ops.
func Known(op string) bool {
	_, ok := Ops[op]
	return ok
}

// Names returns every canonical op name, sorted.
func Names() []string {
	out := make([]string, 0, len(Ops))
	for n := range Ops {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Summary returns the canonical op's one-line summary.
func Summary(op string) string { return Ops[op] }
