package packet

// ipv4Packet starts a full Eth/IPv4/<l4> packet: the header chain and
// the Ethernet and IPv4 fields, by pre-interned ID.
func (pl *Pool) ipv4Packet(id uint64, src, dst uint32, proto uint64, l4 HeaderID, payload int) *Packet {
	p := pl.New(id)
	p.Headers = Chain{
		ids:   [ChainCap]HeaderID{HeaderEth, HeaderIPv4, l4},
		n:     3,
		bytes: headerSize[HeaderEth] + headerSize[HeaderIPv4] + headerSize[l4],
	}
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

// TCPPacket is a convenience constructor for a full Eth/IPv4/TCP packet:
// Pool.TCPPacket on the nil pool.
func TCPPacket(id uint64, src, dst uint32, sport, dport uint16, flags uint64, payload int) *Packet {
	return (*Pool)(nil).TCPPacket(id, src, dst, sport, dport, flags, payload)
}

// UDPPacket is a convenience constructor for a full Eth/IPv4/UDP packet:
// Pool.UDPPacket on the nil pool.
func UDPPacket(id uint64, src, dst uint32, sport, dport uint16, payload int) *Packet {
	return (*Pool)(nil).UDPPacket(id, src, dst, sport, dport, payload)
}

// TCPPacket is TCPPacket with the packet taken from the pool.
func (pl *Pool) TCPPacket(id uint64, src, dst uint32, sport, dport uint16, flags uint64, payload int) *Packet {
	p := pl.ipv4Packet(id, src, dst, ProtoTCP, HeaderTCP, payload)
	p.SetFieldByID(fidTCPSport, uint64(sport))
	p.SetFieldByID(fidTCPDport, uint64(dport))
	p.SetFieldByID(fidTCPFlags, flags)
	p.SetFieldByID(fidTCPOff, 5)
	return p
}

// UDPPacket is UDPPacket with the packet taken from the pool.
func (pl *Pool) UDPPacket(id uint64, src, dst uint32, sport, dport uint16, payload int) *Packet {
	p := pl.ipv4Packet(id, src, dst, ProtoUDP, HeaderUDP, payload)
	p.SetFieldByID(fidUDPSport, uint64(sport))
	p.SetFieldByID(fidUDPDport, uint64(dport))
	p.SetFieldByID(fidUDPLen, uint64(8+payload))
	return p
}

// TagVLAN inserts an 802.1Q tag with VLAN ID vid after the Ethernet
// header of an Eth/IPv4 packet, such as one TCPPacket or UDPPacket
// builds. It fails only when the header chain is full (ChainCap).
func (p *Packet) TagVLAN(vid uint64) error {
	if err := p.InsertHeaderID(1, HeaderVLAN); err != nil {
		return err
	}
	p.SetFieldByID(fidEthType, EtherTypeVLAN)
	p.SetFieldByID(fidVLANVid, vid)
	p.SetFieldByID(fidVLANType, EtherTypeIPv4)
	return nil
}
