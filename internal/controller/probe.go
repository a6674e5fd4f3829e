package controller

import (
	"fmt"

	"flexnet/internal/apps"
	"flexnet/internal/fabric"
	"flexnet/internal/netsim"
	"flexnet/internal/packet"
	"flexnet/internal/runtime"
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
//  1. An INT-stamping telemetry program is installed at runtime on every
//     device of the path (hitless, simultaneous commit).
//  2. One probe packet is sent from srcHost toward dstIP; the
//     destination host reports its accumulated telemetry.
//  3. The programs are removed in one more runtime change. Device
//     resources after CleanedAt are bit-identical to before InjectedAt.
//
// done receives the report once cleanup commits.
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
	for _, dev := range path {
		if c.fab.Device(dev) == nil {
			fail(fmt.Errorf("controller: no device %q on probe path", dev))
			return
		}
	}

	progName := func(dev string) string { return "_probe." + dev }
	cleanup := func() {
		rc := &runtime.NetworkChange{Mode: runtime.ConsistencySimultaneous}
		for _, dev := range path {
			rc.Changes = append(rc.Changes, &runtime.Change{
				Device:  c.fab.Device(dev),
				Removes: []string{progName(dev)},
			})
		}
		c.eng.ApplyNetworkRuntime(rc, func(netsim.Time, []error) {
			rep.CleanedAt = c.fab.Sim.Now()
			done(rep)
		})
	}

	// 1. Inject the telemetry utility on every path device at once.
	nc := &runtime.NetworkChange{Mode: runtime.ConsistencySimultaneous}
	for i, dev := range path {
		prog := apps.INTTelemetry(progName(dev), uint64(i+1))
		nc.Changes = append(nc.Changes, &runtime.Change{
			Device:   c.fab.Device(dev),
			Installs: []runtime.Install{{Program: prog}},
		})
	}
	c.eng.ApplyNetworkRuntime(nc, func(total netsim.Time, errs []error) {
		if len(errs) > 0 {
			fail(errs[0])
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
		probe := packet.TCPPacket(0, h.IP, dstIP, probePort, 7, 0, 0)
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
