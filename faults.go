package flexnet

import (
	"time"

	"flexnet/internal/controller"
	"flexnet/internal/faults"
)

// Fault-injection and self-healing surface (DESIGN.md §10). The fault
// plane replays seeded JSON schedules through the simulator; the healer
// is the controller's reconciliation loop. Neither exists until asked
// for, so fault-free runs carry zero overhead and byte-identical
// telemetry.
type (
	// FaultEvent is one scheduled fault (see faults.Event).
	FaultEvent = faults.Event
	// FaultSchedule is a seeded fault scenario.
	FaultSchedule = faults.Schedule
	// FaultKind names a fault class ("device-crash", "link-down", ...).
	FaultKind = faults.Kind
	// FaultPlane injects schedules into this network.
	FaultPlane = faults.Plane
	// Healer is the controller's reconciliation loop.
	Healer = controller.Healer
)

// NewFaultPlane creates a fault injector over this network's fabric.
// seed drives the plane's own coin flips (message-fault probabilities),
// independent of the traffic seed. If HA is enabled the plane is bound
// to the replica manager, so leader-kill schedules work out of the box.
func (n *Network) NewFaultPlane(seed int64) *FaultPlane {
	p := faults.New(n.fab, seed)
	if h := n.ctl.HA(); h != nil {
		p.BindHA(h)
	}
	return p
}

// ParseFaultSchedule decodes and validates a JSON fault schedule.
func ParseFaultSchedule(data []byte) (*FaultSchedule, error) {
	return faults.Parse(data)
}

// StartSelfHealing starts the controller's reconciliation loop: every
// period it reinstalls whatever committed intent a restarted device
// lost (programs, filters, routes), recording per-recovery MTTR, and
// when no plan is in flight it repairs any device whose app instances
// differ from intent. Returns the loop for its stats.
func (n *Network) StartSelfHealing(every time.Duration) *Healer {
	return n.ctl.StartHealer(every)
}

// IntentDrift lists discrepancies between committed intent and live
// device state (empty when the network holds exactly what was
// committed). See Controller.IntentDrift.
func (n *Network) IntentDrift() []string { return n.ctl.IntentDrift() }
