package fabric

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"flexnet/internal/dataplane"
	"flexnet/internal/drpc"
	"flexnet/internal/flexbpf"
	"flexnet/internal/netsim"
	"flexnet/internal/packet"
)

// TestPacketConservationProperty: on random topologies with random
// traffic, every injected packet is accounted for exactly once —
// delivered to a host, dropped by a link, dropped by a device (policy,
// TTL, unroutable), punted, consumed by a dRPC router, or unclaimed.
// Nothing is duplicated or vanishes. Its lifetime ends once, too: at
// quiescence every packet taken from the simulator's pool has been
// released to it exactly once (a second release panics), with traffic
// reaching every release site — queue overflow, a link that fails with
// packets in flight, policy drops, unroutable traffic, punts, dRPC
// delivery and a dRPC interceptor's drops.
func TestPacketConservationProperty(t *testing.T) {
	archs := []dataplane.Arch{dataplane.ArchRMT, dataplane.ArchDRMT, dataplane.ArchTile, dataplane.ArchSoC}
	for trial := 0; trial < 8; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(trial + 100)))
			f := New(int64(trial))
			nSwitches := 2 + r.Intn(3)
			nHosts := 2 + r.Intn(3)
			for i := 0; i < nSwitches; i++ {
				f.AddSwitch(fmt.Sprintf("s%d", i), archs[r.Intn(len(archs))])
			}
			for i := 0; i < nHosts; i++ {
				f.AddHost(fmt.Sprintf("h%d", i), packet.IP(10, 0, 0, byte(i+1)))
			}
			// Random connected topology: chain the switches, attach each
			// host to a random switch, add a couple of random extra links.
			link := netsim.LinkParams{
				BandwidthBps: 1_000_000_000,
				Delay:        time.Duration(1+r.Intn(20)) * time.Microsecond,
				QueueBytes:   (1 + r.Intn(64)) << 10, // small enough to drop sometimes
			}
			for i := 1; i < nSwitches; i++ {
				f.Connect(fmt.Sprintf("s%d", i-1), fmt.Sprintf("s%d", i), link)
			}
			for i := 0; i < nHosts; i++ {
				f.Connect(fmt.Sprintf("h%d", i), fmt.Sprintf("s%d", r.Intn(nSwitches)), link)
			}
			for e := 0; e < r.Intn(3); e++ {
				a, b := r.Intn(nSwitches), r.Intn(nSwitches)
				if a != b {
					f.Connect(fmt.Sprintf("s%d", a), fmt.Sprintf("s%d", b), link)
				}
			}
			// dRPC: h0 pings s0's control IP through an interceptor that
			// drops every fourth packet and duplicates every fifth.
			devR, err := f.EnableDRPC("s0", packet.IP(10, 255, 0, 1))
			if err != nil {
				t.Fatal(err)
			}
			if err := devR.Register(drpc.ServicePing, drpc.PingHandler()); err != nil {
				t.Fatal(err)
			}
			hostR, err := f.EnableHostDRPC("h0")
			if err != nil {
				t.Fatal(err)
			}
			var intercepted int
			hostR.SetInterceptor(func(*packet.Packet) drpc.Verdict {
				intercepted++
				return drpc.Verdict{Drop: intercepted%4 == 0, Duplicate: intercepted%5 == 0}
			})
			pings := f.Sim.Every(time.Millisecond, func() {
				hostR.Call(devR.IP, drpc.ServicePing, 0, [3]uint64{1}, nil)
			})
			if err := f.InstallBaseRouting(); err != nil {
				t.Fatal(err)
			}
			// Every switch drops or punts the flows sent to one of two
			// ports, ahead of routing.
			for _, dn := range f.Devices() {
				if err := f.Device(dn).InstallProgram(policyProgram()); err != nil {
					t.Fatal(err)
				}
			}
			// One link fails for 10 ms with traffic on it.
			downed := f.Net.Links()[r.Intn(len(f.Net.Links()))]
			f.Sim.At(100*time.Millisecond, func() { downed.SetDown(true) })
			f.Sim.At(110*time.Millisecond, func() { downed.SetDown(false) })

			// Random traffic: every host sprays every other host, plus
			// some unroutable destinations.
			var sources []*netsim.Source
			for i := 0; i < nHosts; i++ {
				for j := 0; j < nHosts; j++ {
					if i == j {
						continue
					}
					src := f.Host(fmt.Sprintf("h%d", i)).NewSource(netsim.FlowSpec{
						Dst:     packet.IP(10, 0, 0, byte(j+1)),
						Proto:   packet.ProtoUDP,
						SrcPort: uint16(1000 + i), DstPort: uint16(2000 + j),
						PacketLen: 100 + r.Intn(1200),
					})
					src.StartPoisson(float64(5000 + r.Intn(30000)))
					sources = append(sources, src)
				}
				// Unroutable flow: counted as device drops.
				bad := f.Host(fmt.Sprintf("h%d", i)).NewSource(netsim.FlowSpec{
					Dst: packet.IP(99, 0, 0, byte(i)), Proto: packet.ProtoUDP, PacketLen: 64,
				})
				bad.StartCBR(1000)
				sources = append(sources, bad)
				for _, port := range []uint16{portDrop, portPunt} {
					policed := f.Host(fmt.Sprintf("h%d", i)).NewSource(netsim.FlowSpec{
						Dst: packet.IP(10, 0, 0, byte((i+1)%nHosts+1)), Proto: packet.ProtoUDP, DstPort: port, PacketLen: 64,
					})
					policed.StartCBR(2000)
					sources = append(sources, policed)
				}
			}
			f.Sim.RunUntil(200 * time.Millisecond)
			for _, s := range sources {
				s.Stop()
			}
			pings.Stop()
			f.Sim.RunFor(50 * time.Millisecond)

			var sent uint64
			for _, s := range sources {
				sent += s.Sent
			}
			var delivered uint64
			for _, hn := range f.Hosts() {
				delivered += f.Host(hn).Received
			}
			var linkDrops uint64
			for _, l := range f.Net.Links() {
				linkDrops += l.Drops
			}
			var deviceDrops, punts uint64
			for _, dn := range f.Devices() {
				deviceDrops += f.Device(dn).Stats().Dropped
				punts += f.Device(dn).Stats().Punted
			}
			// Net.Drops already aggregates per-link drops plus
			// invalid-port sends, so links are not counted separately.
			_ = linkDrops
			// A ping the device router serves is a request that ends there
			// and a reply that starts there; the reply reaches h0 (counted
			// as delivered) or a drop.
			sent += hostR.CallsSent + hostR.Duplicated + devR.CallsServed
			total := delivered + f.Net.Drops + deviceDrops + f.ContinueDrops + punts + hostR.Dropped + devR.CallsServed
			if total != sent {
				t.Fatalf("conservation violated: sent=%d accounted=%d (delivered=%d netDrops=%d devDrops=%d unclaimed=%d punted=%d drpcDropped=%d drpcServed=%d)",
					sent, total, delivered, f.Net.Drops, deviceDrops, f.ContinueDrops, punts, hostR.Dropped, devR.CallsServed)
			}
			if delivered == 0 || punts == 0 || devR.CallsServed == 0 || hostR.Dropped == 0 || hostR.Duplicated == 0 {
				t.Fatalf("degenerate trial: delivered=%d punted=%d drpcServed=%d drpcDropped=%d drpcDuplicated=%d",
					delivered, punts, devR.CallsServed, hostR.Dropped, hostR.Duplicated)
			}
			pool := f.Sim.Packets()
			if pool.Live() != 0 {
				t.Fatalf("%d packets taken from the pool were never released", pool.Live())
			}
			if pool.Free() > pool.Peak() {
				t.Fatalf("the pool holds %d packets, more than the %d that were ever live at once", pool.Free(), pool.Peak())
			}
		})
	}
}

// The destination ports policyProgram drops and punts.
const (
	portDrop = 7001
	portPunt = 7002
)

// policyProgram drops or punts a UDP packet by its destination port and
// lets every other packet continue.
func policyProgram() *flexbpf.Program {
	return flexbpf.NewProgram("policy").
		Do(flexbpf.NewAsm().
			LdField(0, "udp.dport").
			JEqImm(0, portDrop, "drop").
			JEqImm(0, portPunt, "punt").
			Ret().
			Label("drop").Drop().
			Label("punt").Punt().
			MustBuild()).
		MustBuild()
}
