package flexnet

import (
	"errors"

	"flexnet/internal/controller"
	"flexnet/internal/controller/cluster"
)

// errHADisabled reports an HA operation on a network without EnableHA.
var errHADisabled = errors.New("flexnet: HA not enabled (call EnableHA)")

// Controller HA surface (DESIGN.md §15). HA is off until EnableHA: a
// plain network has a single implicit controller and byte-identical
// behaviour to earlier releases. Enabling it starts a replica group
// whose active member is the controller; the group replicates the
// audit chain to standbys, and a leader kill fails over with in-flight
// plans resumed or rolled back through the normal transactional
// executor.
type (
	// HA is the controller's replica manager.
	HA = controller.HA
	// HAConfig seeds election jitter; the group's timings are fixed
	// (DESIGN.md §15.1).
	HAConfig = cluster.HAConfig
	// HAStatus is the ha-status snapshot (replica roles, terms, log
	// watermarks, failover count).
	HAStatus = controller.HAStatus
)

// EnableHA attaches an active/standby replica group of the given size
// to this network's controller (idempotent). The returned manager is
// what a FaultPlane's BindHA wants for leader-kill schedules.
func (n *Network) EnableHA(replicas int, cfg HAConfig) *HA {
	return n.ctl.EnableHA(replicas, cfg)
}

// HA returns the replica manager, or nil when HA is not enabled.
func (n *Network) HA() *HA { return n.ctl.HA() }

// HAStatus snapshots the replica set. With HA off it returns a zero
// status with Enabled=false and Active=-1.
func (n *Network) HAStatus() HAStatus {
	if h := n.ctl.HA(); h != nil {
		return h.Status()
	}
	return HAStatus{Active: -1}
}

// HAFailover runs the operator failover drill: kill the serving
// leader, let the standbys elect a successor, revive the old leader as
// a standby. It returns the killed replica's ID. Errors when HA is off
// or no replica is currently serving.
func (n *Network) HAFailover() (int, error) {
	h := n.ctl.HA()
	if h == nil {
		return -1, errHADisabled
	}
	return h.Failover()
}
