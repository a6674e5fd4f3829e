package fabric

import (
	"fmt"

	"flexnet/internal/drpc"
	"flexnet/internal/netsim"
	"flexnet/internal/packet"
)

// EnableDRPC gives a device a routable control IP and attaches a dRPC
// router to it. Packets addressed to the IP with the dRPC protocol are
// consumed by the router instead of being forwarded; everything else
// still flows through the device's program chain. Call before
// InstallBaseRouting (or call RefreshRoutes afterwards) so the IP is
// routable.
func (f *Fabric) EnableDRPC(devName string, ip uint32) (*drpc.Router, error) {
	sw := f.switches[devName]
	if sw == nil {
		return nil, fmt.Errorf("fabric: no device %q", devName)
	}
	if _, dup := f.routers[devName]; dup {
		return nil, fmt.Errorf("fabric: device %q already has a dRPC router", devName)
	}
	// Originating at the device: run through its own pipeline so the
	// infrastructure routing program forwards it. inPort -1 skips the
	// self-delivery check.
	originate := func(p *packet.Packet, _ int) { f.deviceVisit(sw, p, -1, 0) }
	r := drpc.NewRouter(ip, f.Seq(), func(p *packet.Packet) {
		f.Sim.AtPacket(f.Sim.Now(), originate, p, 0)
	})
	r.SetScheduler(f.simNow, f.simAfter)
	f.routers[devName] = r
	f.routerIPs[devName] = ip
	// The control IP is a routable destination like any host, except the
	// owning device needs no route to itself: delivery happens at ingress.
	f.routing.AddDest("drpc:"+devName, ip, devName, devName, -1)
	return r, nil
}

// simNow/simAfter adapt the simulator clock for drpc.Router.SetScheduler
// (per-attempt timeouts, retry backoff, delayed-delivery verdicts).
func (f *Fabric) simNow() uint64 { return uint64(f.Sim.Now()) }

func (f *Fabric) simAfter(delayNs uint64, fn func()) {
	f.Sim.After(netsim.Time(delayNs), fn)
}

// EnableHostDRPC attaches a dRPC router to a host (controller endpoint).
// dRPC packets delivered to the host are consumed by the router; other
// traffic still reaches Host.Recv.
func (f *Fabric) EnableHostDRPC(hostName string) (*drpc.Router, error) {
	h := f.hosts[hostName]
	if h == nil {
		return nil, fmt.Errorf("fabric: no host %q", hostName)
	}
	send := func(p *packet.Packet, _ int) { h.Node.Send(p, 0) }
	r := drpc.NewRouter(h.IP, f.Seq(), func(p *packet.Packet) {
		f.Sim.AtPacket(f.Sim.Now(), send, p, 0)
	})
	r.SetScheduler(f.simNow, f.simAfter)
	prev := h.Recv
	h.Recv = func(p *packet.Packet) {
		if p.Has("drpc") && r.Deliver(p) {
			return
		}
		if prev != nil {
			prev(p)
		}
	}
	return r, nil
}

// Router returns the dRPC router attached to a device, or nil.
func (f *Fabric) Router(devName string) *drpc.Router { return f.routers[devName] }
