//go:build packet_release_mutant

package fabric

import (
	"flexnet/internal/netsim"
	"flexnet/internal/packet"
)

// transmit, in this test-only build (tag packet_release_mutant), releases
// a forwarded packet to the pool as soon as it is sent, while the link
// still carries it: the early release that lets the pool hand a live
// packet out twice. `make mutants` runs TestPacketConservationProperty
// against it, which must fail.
func (f *Fabric) transmit(node *netsim.Node, pkt *packet.Packet) {
	f.events++
	node.Send(pkt, pkt.EgressPort)
	f.Sim.Packets().Release(pkt)
}
