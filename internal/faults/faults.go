// Package faults is FlexNet's deterministic fault plane (DESIGN.md §10):
// a seeded, schedule-driven injector that drives device crashes, link
// failures and flaps, network partitions, dRPC message loss/delay/
// duplication, and HA leader kills through the simulator's event queue.
// Schedules are plain JSON (see Parse) so the same fault scenario can be
// replayed from flexbench, flexnetd, or a test; at a fixed seed the
// whole run — injections, retries, recoveries, telemetry — is
// byte-identical, which is what makes chaos testing assertable in CI
// rather than merely suggestive.
package faults

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"flexnet/internal/drpc"
	"flexnet/internal/fabric"
	"flexnet/internal/netsim"
	"flexnet/internal/packet"
)

// Kind names one injectable fault class.
type Kind string

// Fault kinds.
const (
	// KindDeviceCrash fail-stops a device with config loss; it restarts
	// empty after DurationNs (never, if zero). Target: device name.
	KindDeviceCrash Kind = "device-crash"
	// KindLinkDown fails a link for DurationNs (forever if zero) and
	// refreshes routes around it. Target: "a-b" (node names).
	KindLinkDown Kind = "link-down"
	// KindLinkFlap toggles a link down/up Count times, each half-cycle
	// lasting DurationNs. Target: "a-b".
	KindLinkFlap Kind = "link-flap"
	// KindPartition fails every link incident to a node for DurationNs,
	// isolating it from the fabric. Target: node name.
	KindPartition Kind = "partition"
	// KindDRPCDrop drops each dRPC packet the target's router transmits
	// with probability Prob during the window [At, At+DurationNs).
	// Target: device name, or "*" for every router.
	KindDRPCDrop Kind = "drpc-drop"
	// KindDRPCDelay delays transmitted dRPC packets by DelayNs with
	// probability Prob during the window. Target: device name or "*".
	KindDRPCDelay Kind = "drpc-delay"
	// KindDRPCDup duplicates transmitted dRPC packets with probability
	// Prob during the window. Target: device name or "*".
	KindDRPCDup Kind = "drpc-dup"
	// KindLeaderKill crashes whichever HA controller replica is serving
	// as the active leader, forcing a failover through the standbys
	// (DESIGN.md §15.5). The killed replica is revived as a standby
	// after DurationNs (never, if zero). Target is unused. Requires
	// BindHA.
	KindLeaderKill Kind = "leader-kill"
)

var validKinds = map[Kind]bool{
	KindDeviceCrash: true,
	KindLinkDown:    true,
	KindLinkFlap:    true,
	KindPartition:   true,
	KindDRPCDrop:    true,
	KindDRPCDelay:   true,
	KindDRPCDup:     true,
	KindLeaderKill:  true,
}

// Event is one scheduled fault.
type Event struct {
	// At is the injection time in simulated nanoseconds, counted from
	// the moment the schedule is applied (so operators can submit
	// schedules to a long-running flexnetd without knowing its clock).
	At uint64 `json:"at_ns"`
	// Kind selects the fault class.
	Kind Kind `json:"kind"`
	// Target is kind-specific: a device, "a-b" link, node, or router
	// ("*" = all).
	Target string `json:"target,omitempty"`
	// DurationNs is how long the fault lasts (kind-specific default).
	DurationNs uint64 `json:"duration_ns,omitempty"`
	// DelayNs is the added latency for drpc-delay.
	DelayNs uint64 `json:"delay_ns,omitempty"`
	// Prob is the per-packet probability for the drpc-* kinds.
	Prob float64 `json:"prob,omitempty"`
	// Count is the number of down/up cycles for link-flap.
	Count int `json:"count,omitempty"`
}

// Schedule is a reproducible fault scenario: a seed for the message-
// fault coin flips plus the event list.
type Schedule struct {
	Seed   int64   `json:"seed,omitempty"`
	Events []Event `json:"events"`
}

// Parse decodes and validates a JSON schedule.
func Parse(data []byte) (*Schedule, error) {
	var s Schedule
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("faults: bad schedule: %w", err)
	}
	for i, e := range s.Events {
		if !validKinds[e.Kind] {
			return nil, fmt.Errorf("faults: event %d: unknown kind %q", i, e.Kind)
		}
	}
	return &s, nil
}

// msgWindow is one active message-fault window on a router.
type msgWindow struct {
	until   uint64
	prob    float64
	delayNs uint64
}

// msgFaults is the live message-fault state for one router.
type msgFaults struct {
	drop  msgWindow
	delay msgWindow
	dup   msgWindow
}

// HAPlane is the fault plane's hook into the HA controller replica set
// (controller.HA satisfies it): KillActive crashes the serving leader
// and returns its replica ID; ReviveReplica restarts it as a standby.
// An interface keeps this package free of a controller dependency.
type HAPlane interface {
	KillActive() (int, bool)
	ReviveReplica(id int)
}

// Plane injects faults into one fabric. Create with New, optionally
// BindHA for leader-kill events, then Apply schedules. All
// injections run on the simulator's event loop; the plane's own rng
// drives the message-fault coin flips, so runs are reproducible at
// (fabric seed, plane seed, schedule).
type Plane struct {
	fab *fabric.Fabric
	ha  HAPlane
	rng *rand.Rand
	// msg holds per-router fault windows; the router's interceptor is
	// installed lazily on the first message fault that targets it.
	msg map[string]*msgFaults
	// Injected counts fired events per kind (mirrored into lazy
	// "faults.injected.<kind>" counters in the fabric registry).
	Injected map[Kind]uint64
}

// New creates a fault plane over fab, seeded for the message-fault coin
// flips. The seed is independent of the fabric's so adding faults never
// perturbs traffic generation.
func New(fab *fabric.Fabric, seed int64) *Plane {
	return &Plane{
		fab:      fab,
		rng:      rand.New(rand.NewSource(seed)),
		msg:      map[string]*msgFaults{},
		Injected: map[Kind]uint64{},
	}
}

// BindHA attaches an HA replica manager as the target of leader-kill
// events.
func (p *Plane) BindHA(ha HAPlane) { p.ha = ha }

// Apply validates every event against the live topology and schedules
// them all on the simulator. It can be called repeatedly (e.g. one
// schedule per flexnetd op). Events at equal times fire in slice order.
func (p *Plane) Apply(s *Schedule) error {
	for i, e := range s.Events {
		if err := p.check(e); err != nil {
			return fmt.Errorf("faults: event %d: %w", i, err)
		}
	}
	for _, e := range s.Events {
		e := e
		p.fab.Sim.After(netsim.Time(e.At), func() { p.fire(e) })
	}
	return nil
}

// check validates one event's target against the topology.
func (p *Plane) check(e Event) error {
	switch e.Kind {
	case KindDeviceCrash:
		if p.fab.Device(e.Target) == nil {
			return fmt.Errorf("no device %q", e.Target)
		}
	case KindLinkDown, KindLinkFlap:
		if _, err := p.link(e.Target); err != nil {
			return err
		}
	case KindPartition:
		if len(p.incidentLinks(e.Target)) == 0 {
			return fmt.Errorf("node %q has no links", e.Target)
		}
	case KindDRPCDrop, KindDRPCDelay, KindDRPCDup:
		if e.Prob <= 0 || e.Prob > 1 {
			return fmt.Errorf("prob %v out of (0,1]", e.Prob)
		}
		if e.DurationNs == 0 {
			return fmt.Errorf("message faults need duration_ns")
		}
		if e.Target != "*" && p.fab.Router(e.Target) == nil {
			return fmt.Errorf("no dRPC router on %q", e.Target)
		}
	case KindLeaderKill:
		if p.ha == nil {
			return fmt.Errorf("no HA group bound (BindHA)")
		}
	default:
		return fmt.Errorf("unknown kind %q", e.Kind)
	}
	return nil
}

// link resolves an "a-b" target.
func (p *Plane) link(target string) (*netsim.Link, error) {
	parts := strings.SplitN(target, "-", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("link target %q is not \"a-b\"", target)
	}
	l := p.fab.Net.LinkBetween(parts[0], parts[1])
	if l == nil {
		return nil, fmt.Errorf("no link %s", target)
	}
	return l, nil
}

// incidentLinks returns every link touching the named node.
func (p *Plane) incidentLinks(node string) []*netsim.Link {
	var out []*netsim.Link
	for _, l := range p.fab.Net.Links() {
		a, b := l.Ends()
		if a == node || b == node {
			out = append(out, l)
		}
	}
	return out
}

// count bumps the per-kind tally and its lazily-created counter.
func (p *Plane) count(k Kind) {
	p.Injected[k]++
	p.fab.Metrics.Counter("faults.injected." + string(k)).Inc()
}

// fire executes one event at its scheduled instant.
func (p *Plane) fire(e Event) {
	p.count(e.Kind)
	switch e.Kind {
	case KindDeviceCrash:
		d := p.fab.Device(e.Target)
		d.Crash()
		if e.DurationNs > 0 {
			p.fab.Sim.After(netsim.Time(e.DurationNs), d.Restart)
		}
	case KindLinkDown:
		l, _ := p.link(e.Target)
		p.setLink(l, true)
		if e.DurationNs > 0 {
			p.fab.Sim.After(netsim.Time(e.DurationNs), func() { p.setLink(l, false) })
		}
	case KindLinkFlap:
		l, _ := p.link(e.Target)
		cycles := e.Count
		if cycles < 1 {
			cycles = 1
		}
		half := netsim.Time(e.DurationNs)
		for c := 0; c < cycles; c++ {
			downAt := netsim.Time(2*c) * half
			p.fab.Sim.After(downAt, func() { p.setLink(l, true) })
			p.fab.Sim.After(downAt+half, func() { p.setLink(l, false) })
		}
	case KindPartition:
		links := p.incidentLinks(e.Target)
		for _, l := range links {
			l.SetDown(true)
		}
		p.refreshRoutes()
		if e.DurationNs > 0 {
			p.fab.Sim.After(netsim.Time(e.DurationNs), func() {
				for _, l := range links {
					l.SetDown(false)
				}
				p.refreshRoutes()
			})
		}
	case KindDRPCDrop, KindDRPCDelay, KindDRPCDup:
		until := uint64(p.fab.Sim.Now()) + e.DurationNs
		for _, dev := range p.routerTargets(e.Target) {
			mf := p.ensureInterceptor(dev)
			w := msgWindow{until: until, prob: e.Prob, delayNs: e.DelayNs}
			switch e.Kind {
			case KindDRPCDrop:
				mf.drop = w
			case KindDRPCDelay:
				mf.delay = w
			case KindDRPCDup:
				mf.dup = w
			}
		}
	case KindLeaderKill:
		id, ok := p.ha.KillActive()
		if !ok {
			// No replica is serving (already mid-failover); the event
			// fires but has nothing to kill.
			return
		}
		if e.DurationNs > 0 {
			p.fab.Sim.After(netsim.Time(e.DurationNs), func() { p.ha.ReviveReplica(id) })
		}
	}
}

// setLink fails/restores a link and reroutes around the change.
func (p *Plane) setLink(l *netsim.Link, down bool) {
	l.SetDown(down)
	p.refreshRoutes()
}

// refreshRoutes recomputes routing after a topology change. Errors
// (e.g. a device that is down and program-less) are counted, not
// fatal: the healer converges the survivors.
func (p *Plane) refreshRoutes() {
	if err := p.fab.RefreshRoutes(); err != nil {
		p.fab.Metrics.Counter("faults.route_refresh_errors").Inc()
	}
}

// routerTargets expands "*" to every routed device, sorted for
// determinism.
func (p *Plane) routerTargets(target string) []string {
	if target != "*" {
		return []string{target}
	}
	var out []string
	for _, dev := range p.fab.Devices() {
		if p.fab.Router(dev) != nil {
			out = append(out, dev)
		}
	}
	sort.Strings(out)
	return out
}

// ensureInterceptor installs this plane's interceptor on the device's
// router (once) and returns the router's fault-window state. The
// interceptor runs on the event loop, so reading the windows and
// drawing from the plane rng is deterministic.
func (p *Plane) ensureInterceptor(dev string) *msgFaults {
	if mf := p.msg[dev]; mf != nil {
		return mf
	}
	mf := &msgFaults{}
	p.msg[dev] = mf
	r := p.fab.Router(dev)
	met := p.fab.Metrics
	r.SetInterceptor(func(pkt *packet.Packet) drpc.Verdict {
		now := uint64(p.fab.Sim.Now())
		var v drpc.Verdict
		if now < mf.drop.until && p.rng.Float64() < mf.drop.prob {
			v.Drop = true
			met.Counter("faults.drpc_dropped").Inc()
			return v
		}
		if now < mf.dup.until && p.rng.Float64() < mf.dup.prob {
			v.Duplicate = true
			met.Counter("faults.drpc_duplicated").Inc()
		}
		if now < mf.delay.until && p.rng.Float64() < mf.delay.prob {
			v.DelayNs = mf.delay.delayNs
			met.Counter("faults.drpc_delayed").Inc()
		}
		return v
	})
	return mf
}
