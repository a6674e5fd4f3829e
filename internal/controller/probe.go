package controller

import (
	"context"
	"fmt"

	"flexnet/internal/apps"
	"flexnet/internal/fabric"
	"flexnet/internal/netsim"
	"flexnet/internal/packet"
	"flexnet/internal/plan"
)

// ProbeReport is the outcome of a transient path diagnosis.
type ProbeReport struct {
	// Hops is the number of instrumented devices the probe traversed.
	Hops uint64
	// LastDevice is the telemetry id stamped by the final hop.
	LastDevice uint64
	// PathLatency is source-to-destination transit time of the probe.
	PathLatency netsim.Time
	// LastHopClockNs is the final hop's device-local timestamp.
	LastHopClockNs uint64
	// InjectedAt and CleanedAt bound the utility's lifetime: before
	// InjectedAt and after CleanedAt the network carries no probe code.
	InjectedAt netsim.Time
	CleanedAt  netsim.Time
	Err        error
}

// probePort marks probe packets (an ephemeral source port).
const probePort = 65001

// Probe implements the paper's transient utility functions (§3.4:
// "in-network monitoring, execution tracking, and diagnosis primitives
// ... do not have a persistent footprint inside the network, but are
// injected in real-time for maintenance tasks and removed soon after"):
//
//  1. An inject plan installs an INT-stamping telemetry program on every
//     device of the path; all of them commit at one simulated instant.
//  2. One probe packet is sent from srcHost toward dstIP; the
//     destination host reports its accumulated telemetry.
//  3. A clean-up plan removes the programs. Device resources after
//     CleanedAt are bit-identical to before InjectedAt.
//
// Both plans carry Origin "probe" and run through Controller.run like
// every other change: they wait for conflicting plans, leave audit
// records, and roll back on failure. An inject that fails installs
// nothing and ends the probe with its error. done receives the report
// once clean-up finishes.
func (c *Controller) Probe(srcHost string, dstIP uint32, path []string, done func(ProbeReport)) {
	rep := ProbeReport{InjectedAt: c.fab.Sim.Now()}
	fail := func(err error) {
		rep.Err = err
		done(rep)
	}
	h := c.fab.Host(srcHost)
	if h == nil {
		fail(fmt.Errorf("controller: no host %q", srcHost))
		return
	}
	dst := c.hostByIP(dstIP)
	if dst == nil {
		fail(fmt.Errorf("controller: no host with IP %#x to terminate the probe", dstIP))
		return
	}

	progName := func(dev string) string { return "_probe." + dev }
	label := fmt.Sprintf("probe %s -> %s", srcHost, dst.Name)
	cleanup := func() {
		cp := plan.New(label + " clean-up")
		cp.Origin = "probe"
		// Like an app removal, a probe on a device that died since the
		// inject is gone with it: skip the device rather than strand the
		// probe programs on the others.
		cp.AllowDegraded = true
		for _, dev := range path {
			cp.Remove(dev, progName(dev))
		}
		c.run(context.Background(), cp, nil, nil, func(r *plan.Report) {
			rep.CleanedAt = c.fab.Sim.Now()
			if rep.Err == nil {
				rep.Err = r.Err
			}
			done(rep)
		})
	}

	// 1. Inject the telemetry utility on every path device at once.
	inject := plan.New(label + " inject")
	inject.Origin = "probe"
	for i, dev := range path {
		inject.Install(dev, progName(dev), apps.INTTelemetry(progName(dev), uint64(i+1)), nil, 0)
	}
	c.run(context.Background(), inject, nil, nil, func(r *plan.Report) {
		if r.Err != nil {
			fail(r.Err)
			return
		}
		// 2. Intercept the probe at the destination.
		prev := dst.Recv
		seen := false
		dst.Recv = func(p *packet.Packet) {
			if !seen && p.Has("int") && p.Field("tcp.sport") == probePort {
				seen = true
				dst.Recv = prev
				rep.Hops = p.Field("int.hopcount")
				rep.LastDevice = p.Field("int.device")
				rep.LastHopClockNs = p.Field("int.latency")
				if p.HasSentAt {
					rep.PathLatency = c.fab.Sim.Now() - netsim.Time(p.SentAt)
				}
				// 3. Retire the utility immediately.
				cleanup()
				return
			}
			if prev != nil {
				prev(p)
			}
		}
		probe := c.fab.Sim.Packets().TCPPacket(0, h.IP, dstIP, probePort, 7, 0, 0)
		h.Send(probe)
		// Watchdog: a lost probe must not leave the utility installed.
		c.fab.Sim.After(500_000_000, func() {
			if !seen {
				seen = true
				dst.Recv = prev
				rep.Err = fmt.Errorf("controller: probe packet lost")
				cleanup()
			}
		})
	})
}

// hostByIP finds a fabric host by address.
func (c *Controller) hostByIP(ip uint32) *fabric.Host {
	for _, hn := range c.fab.Hosts() {
		if h := c.fab.Host(hn); h.IP == ip {
			return h
		}
	}
	return nil
}
