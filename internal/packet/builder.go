package packet

// Builder provides a fluent API for constructing test and workload
// packets. The zero Builder is not usable; start with NewBuilder.
type Builder struct {
	p   *Packet
	seq *uint64
}

// NewBuilder creates a builder that allocates packet IDs from seq
// (incremented per Build). Pass nil to always build packets with ID 0.
func NewBuilder(seq *uint64) *Builder {
	b := &Builder{seq: seq}
	b.reset()
	return b
}

func (b *Builder) reset() {
	var id uint64
	if b.seq != nil {
		*b.seq++
		id = *b.seq
	}
	b.p = New(id)
}

// Eth adds an Ethernet header.
func (b *Builder) Eth(src, dst uint64) *Builder {
	b.p.AddHeader("eth")
	b.p.SetField("eth.src", src)
	b.p.SetField("eth.dst", dst)
	b.p.SetField("eth.type", EtherTypeIPv4)
	return b
}

// VLAN inserts an 802.1Q tag with the given VLAN ID.
func (b *Builder) VLAN(vid uint64) *Builder {
	b.p.SetField("eth.type", EtherTypeVLAN)
	b.p.AddHeader("vlan")
	b.p.SetField("vlan.vid", vid)
	b.p.SetField("vlan.type", EtherTypeIPv4)
	return b
}

// IPv4 adds an IPv4 header.
func (b *Builder) IPv4(src, dst uint32) *Builder {
	b.p.AddHeader("ipv4")
	b.p.SetField("ipv4.version", 4)
	b.p.SetField("ipv4.ihl", 5)
	b.p.SetField("ipv4.ttl", 64)
	b.p.SetField("ipv4.src", uint64(src))
	b.p.SetField("ipv4.dst", uint64(dst))
	return b
}

// TCP adds a TCP header.
func (b *Builder) TCP(sport, dport uint16, flags uint64) *Builder {
	b.p.SetField("ipv4.proto", ProtoTCP)
	b.p.AddHeader("tcp")
	b.p.SetField("tcp.sport", uint64(sport))
	b.p.SetField("tcp.dport", uint64(dport))
	b.p.SetField("tcp.flags", flags)
	b.p.SetField("tcp.off", 5)
	return b
}

// UDP adds a UDP header.
func (b *Builder) UDP(sport, dport uint16) *Builder {
	b.p.SetField("ipv4.proto", ProtoUDP)
	b.p.AddHeader("udp")
	b.p.SetField("udp.sport", uint64(sport))
	b.p.SetField("udp.dport", uint64(dport))
	return b
}

// DRPC adds a data-plane RPC header.
func (b *Builder) DRPC(service uint64, method, flags uint64, callID uint64) *Builder {
	b.p.SetField("ipv4.proto", ProtoDRPC)
	b.p.AddHeader("drpc")
	b.p.SetField("drpc.service", service)
	b.p.SetField("drpc.method", method)
	b.p.SetField("drpc.flags", flags)
	b.p.SetField("drpc.callid", callID)
	return b
}

// Payload sets the payload length in bytes.
func (b *Builder) Payload(n int) *Builder {
	b.p.PayloadLen = n
	return b
}

// Field sets an arbitrary field.
func (b *Builder) Field(name string, v uint64) *Builder {
	b.p.SetField(name, v)
	return b
}

// Header marks an arbitrary (for example custom/tenant) header present.
func (b *Builder) Header(name string) *Builder {
	b.p.AddHeader(name)
	return b
}

// Ingress sets the ingress port.
func (b *Builder) Ingress(port int) *Builder {
	b.p.IngressPort = port
	return b
}

// Build finalizes and returns the packet, and resets the builder for the
// next one.
func (b *Builder) Build() *Packet {
	p := b.p
	b.reset()
	return p
}

// ipv4Packet starts a full Eth/IPv4/<l4> packet: the header chain (in
// the packet's inline storage, with room for one more header, a VLAN tag
// or a shim, before it must grow) and the Ethernet and IPv4 fields, by
// pre-interned ID.
func ipv4Packet(id uint64, src, dst uint32, proto uint64, l4 string, payload int) *Packet {
	p := New(id)
	p.Headers = append(p.Headers, "eth", "ipv4", l4)
	p.SetFieldByID(fidEthType, EtherTypeIPv4)
	p.SetFieldByID(fidIPv4Version, 4)
	p.SetFieldByID(fidIPv4IHL, 5)
	p.SetFieldByID(fidIPv4TTL, 64)
	p.SetFieldByID(fidIPv4Proto, proto)
	p.SetFieldByID(fidIPv4Src, uint64(src))
	p.SetFieldByID(fidIPv4Dst, uint64(dst))
	p.PayloadLen = payload
	return p
}

// TCPPacket is a convenience constructor for a full Eth/IPv4/TCP packet.
func TCPPacket(id uint64, src, dst uint32, sport, dport uint16, flags uint64, payload int) *Packet {
	p := ipv4Packet(id, src, dst, ProtoTCP, "tcp", payload)
	p.SetFieldByID(fidTCPSport, uint64(sport))
	p.SetFieldByID(fidTCPDport, uint64(dport))
	p.SetFieldByID(fidTCPFlags, flags)
	p.SetFieldByID(fidTCPOff, 5)
	return p
}

// UDPPacket is a convenience constructor for a full Eth/IPv4/UDP packet.
func UDPPacket(id uint64, src, dst uint32, sport, dport uint16, payload int) *Packet {
	p := ipv4Packet(id, src, dst, ProtoUDP, "udp", payload)
	p.SetFieldByID(fidUDPSport, uint64(sport))
	p.SetFieldByID(fidUDPDport, uint64(dport))
	p.SetFieldByID(fidUDPLen, uint64(8+payload))
	return p
}
