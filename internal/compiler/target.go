package compiler

import (
	"fmt"

	"flexnet/internal/dataplane"
	"flexnet/internal/flexbpf"
)

// DeviceTarget adapts a dataplane.Device to the Target interface.
// Removable programs must be registered explicitly by the owner
// (MarkRemovable); the compiler only counts them as freed.
type DeviceTarget struct {
	Dev *dataplane.Device
	// removable maps program name → demand, maintained by MarkRemovable.
	removable map[string]flexbpf.Demand
}

// NewDeviceTarget wraps a device.
func NewDeviceTarget(d *dataplane.Device) *DeviceTarget {
	return &DeviceTarget{Dev: d, removable: map[string]flexbpf.Demand{}}
}

// MarkRemovable declares an installed program reclaimable by the
// compiler's garbage-collection primitive.
func (t *DeviceTarget) MarkRemovable(name string) error {
	inst := t.Dev.Instance(name)
	if inst == nil {
		return fmt.Errorf("compiler: %s: no program %q to mark removable", t.Dev.Name(), name)
	}
	t.removable[name] = flexbpf.ProgramDemand(inst.Program())
	return nil
}

// Name implements Target.
func (t *DeviceTarget) Name() string { return t.Dev.Name() }

// Capabilities implements Target.
func (t *DeviceTarget) Capabilities() flexbpf.Capabilities { return t.Dev.Capabilities() }

// Free implements Target.
func (t *DeviceTarget) Free() flexbpf.Demand { return t.Dev.Free() }

// CanHost implements Target via a device dry-run reservation.
func (t *DeviceTarget) CanHost(prog *flexbpf.Program) bool { return t.Dev.CanHost(prog) }

// BaseLatencyNs implements Target.
func (t *DeviceTarget) BaseLatencyNs() uint64 { return t.Dev.Perf().BaseLatencyNs }

// CapacityPPS implements Target.
func (t *DeviceTarget) CapacityPPS() uint64 { return t.Dev.Perf().CapacityPPS }

// Active implements Target.
func (t *DeviceTarget) Active() bool { return len(t.Dev.Programs()) > 0 }

// IdleWatts implements Target.
func (t *DeviceTarget) IdleWatts() float64 { return t.Dev.Energy().IdleWatts }

// ActiveWatts implements Target.
func (t *DeviceTarget) ActiveWatts() float64 { return t.Dev.Energy().ActiveWatts }

// Removable implements Target.
func (t *DeviceTarget) Removable() map[string]flexbpf.Demand {
	out := make(map[string]flexbpf.Demand, len(t.removable))
	for k, v := range t.removable {
		out[k] = v
	}
	return out
}

// RefundTarget overlays a Target with demand that should be treated as
// free for the duration of one compilation. The fungible strategy's
// garbage-collection round refunds reclaimed programs with it, and the
// controller uses it to recompute an app's placement from scratch: the
// app's own installed replicas still occupy their devices, so a plain
// full Compile would see the fabric as fuller than the placement
// problem actually is. Refunding the app's per-device demand makes
// repeated full recomputes reproduce the original placement
// deterministically.
//
// CanHost is answered by demand arithmetic against the refunded Free —
// the wrapped device's own dry-run would count the refunded programs
// and refuse placements that are valid once they are released.
type RefundTarget struct {
	Target
	Refund flexbpf.Demand
}

// Free implements Target with the refund applied.
func (t *RefundTarget) Free() flexbpf.Demand { return t.Target.Free().Add(t.Refund) }

// CanHost implements Target by demand arithmetic over the refunded Free.
func (t *RefundTarget) CanHost(prog *flexbpf.Program) bool {
	return flexbpf.ProgramDemand(prog).Fits(t.Free())
}
