//go:build !packet_release_mutant

package fabric

import (
	"flexnet/internal/netsim"
	"flexnet/internal/packet"
)

// transmit sends a forwarded packet out of its egress port on node; the
// link owns it from then on. packet_release_mutant.go replaces it in a
// test-only build with the bug the packet lifetime check must catch.
func (f *Fabric) transmit(node *netsim.Node, pkt *packet.Packet) {
	f.events++
	node.Send(pkt, pkt.EgressPort)
}
