package packet

import (
	"encoding/binary"
	"fmt"
)

// IP protocol numbers used by the simulator.
const (
	ProtoICMP uint64 = 1
	ProtoTCP  uint64 = 6
	ProtoUDP  uint64 = 17
	// ProtoDRPC is a private protocol number carrying FlexNet data-plane
	// RPC messages (see internal/drpc).
	ProtoDRPC uint64 = 253
)

// EtherTypes used by the simulator.
const (
	EtherTypeIPv4 uint64 = 0x0800
	EtherTypeVLAN uint64 = 0x8100
	EtherTypeARP  uint64 = 0x0806
	// EtherTypeFlexEpoch tags the packet with a FlexNet program epoch;
	// inserted at ingress of a reconfiguring device, removed at egress.
	EtherTypeFlexEpoch uint64 = 0x88B5 // IEEE local experimental
)

// TCP flag bits as exposed in field "tcp.flags".
const (
	TCPFin uint64 = 1 << 0
	TCPSyn uint64 = 1 << 1
	TCPRst uint64 = 1 << 2
	TCPPsh uint64 = 1 << 3
	TCPAck uint64 = 1 << 4
)

// headerSpec describes one header type's wire layout. Widths are in bits;
// all fields are big-endian on the wire and bit-packed in order.
type headerSpec struct {
	name   string
	fields []fieldSpec
	bytes  int
}

type fieldSpec struct {
	name string
	bits int
	// full is the interned "header.field" name and id its FieldID, both
	// resolved at registration so the wire codecs never build strings.
	full string
	id   FieldID
}

// headerSpecs holds every header layout by name. registerHeader writes it
// during package init only; after that it is read-only, so the codecs
// read it without a lock.
var headerSpecs = map[string]*headerSpec{}

func registerHeader(name string, fields ...fieldSpec) *headerSpec {
	total := 0
	for i := range fields {
		f := &fields[i]
		if f.bits <= 0 || f.bits > 64 {
			panic(fmt.Sprintf("packet: field %s.%s has invalid width %d", name, f.name, f.bits))
		}
		total += f.bits
		f.full = name + "." + f.name
		f.id = InternField(f.full)
	}
	if total%8 != 0 {
		panic(fmt.Sprintf("packet: header %s is %d bits, not byte aligned", name, total))
	}
	h := &headerSpec{name: name, fields: fields, bytes: total / 8}
	headerSpecs[name] = h
	return h
}

// Standard header layouts. These follow the real wire formats closely
// enough for the experiments (options are not modelled; IPv4 IHL is fixed
// at 5, TCP data offset at 5).
var (
	specEthernet = registerHeader("eth",
		fieldSpec{name: "dst", bits: 48}, fieldSpec{name: "src", bits: 48}, fieldSpec{name: "type", bits: 16})
	specVLAN = registerHeader("vlan",
		fieldSpec{name: "pcp", bits: 3}, fieldSpec{name: "dei", bits: 1}, fieldSpec{name: "vid", bits: 12}, fieldSpec{name: "type", bits: 16})
	specIPv4 = registerHeader("ipv4",
		fieldSpec{name: "version", bits: 4}, fieldSpec{name: "ihl", bits: 4}, fieldSpec{name: "dscp", bits: 6}, fieldSpec{name: "ecn", bits: 2},
		fieldSpec{name: "len", bits: 16}, fieldSpec{name: "id", bits: 16}, fieldSpec{name: "flags", bits: 3}, fieldSpec{name: "frag", bits: 13},
		fieldSpec{name: "ttl", bits: 8}, fieldSpec{name: "proto", bits: 8}, fieldSpec{name: "csum", bits: 16},
		fieldSpec{name: "src", bits: 32}, fieldSpec{name: "dst", bits: 32})
	specTCP = registerHeader("tcp",
		fieldSpec{name: "sport", bits: 16}, fieldSpec{name: "dport", bits: 16}, fieldSpec{name: "seq", bits: 32}, fieldSpec{name: "ack", bits: 32},
		fieldSpec{name: "off", bits: 4}, fieldSpec{name: "rsvd", bits: 3}, fieldSpec{name: "flags", bits: 9},
		fieldSpec{name: "win", bits: 16}, fieldSpec{name: "csum", bits: 16}, fieldSpec{name: "urg", bits: 16})
	specUDP = registerHeader("udp",
		fieldSpec{name: "sport", bits: 16}, fieldSpec{name: "dport", bits: 16}, fieldSpec{name: "len", bits: 16}, fieldSpec{name: "csum", bits: 16})
	// FlexNet epoch shim: version epoch + original ethertype.
	specFlexEpoch = registerHeader("flexepoch",
		fieldSpec{name: "epoch", bits: 32}, fieldSpec{name: "type", bits: 16})
	// In-band network telemetry record (one hop).
	specINT = registerHeader("int",
		fieldSpec{name: "hopcount", bits: 8}, fieldSpec{name: "device", bits: 16}, fieldSpec{name: "qdepth", bits: 24}, fieldSpec{name: "latency", bits: 32}, fieldSpec{name: "type", bits: 16})
	// Data-plane RPC header (see internal/drpc): carried over IPv4 proto ProtoDRPC.
	specDRPC = registerHeader("drpc",
		fieldSpec{name: "service", bits: 16}, fieldSpec{name: "method", bits: 8}, fieldSpec{name: "flags", bits: 8},
		fieldSpec{name: "callid", bits: 32}, fieldSpec{name: "arg0", bits: 64}, fieldSpec{name: "arg1", bits: 64}, fieldSpec{name: "arg2", bits: 64})
)

// HeaderBytes returns the wire size in bytes of the named header, or 0 if
// the header type is unknown.
func HeaderBytes(name string) int {
	// Resolved without a map hash: Packet.Len walks the header stack per
	// packet, so this sits on the data path.
	switch name {
	case "eth":
		return specEthernet.bytes
	case "vlan":
		return specVLAN.bytes
	case "ipv4":
		return specIPv4.bytes
	case "tcp":
		return specTCP.bytes
	case "udp":
		return specUDP.bytes
	case "flexepoch":
		return specFlexEpoch.bytes
	case "int":
		return specINT.bytes
	case "drpc":
		return specDRPC.bytes
	}
	return 0
}

// EncodeHeader serializes the named header's fields from the packet into
// wire bytes appended to dst.
func EncodeHeader(dst []byte, name string, p *Packet) ([]byte, error) {
	s, ok := headerSpecs[name]
	if !ok {
		return dst, fmt.Errorf("packet: unknown header %q", name)
	}
	var bitbuf uint64
	bits := 0
	for _, f := range s.fields {
		v := p.FieldByID(f.id)
		if f.bits < 64 {
			v &= (1 << uint(f.bits)) - 1
		}
		// Flush whole bytes as they fill.
		rem := f.bits
		for rem > 0 {
			take := rem
			if take > 64-bits {
				take = 64 - bits
			}
			bitbuf = bitbuf<<uint(take) | (v >> uint(rem-take) & ((1 << uint(take)) - 1))
			bits += take
			rem -= take
			for bits >= 8 {
				dst = append(dst, byte(bitbuf>>uint(bits-8)))
				bits -= 8
			}
		}
	}
	if bits != 0 {
		return dst, fmt.Errorf("packet: header %q not byte aligned after encode", name)
	}
	return dst, nil
}

// DecodeHeader parses the named header from src into the packet's fields
// and returns the remaining bytes.
func DecodeHeader(src []byte, name string, p *Packet) ([]byte, error) {
	s, ok := headerSpecs[name]
	if !ok {
		return src, fmt.Errorf("packet: unknown header %q", name)
	}
	if len(src) < s.bytes {
		return src, fmt.Errorf("packet: short buffer for header %q: have %d bytes, need %d", name, len(src), s.bytes)
	}
	bitpos := 0
	buf := src[:s.bytes]
	for _, f := range s.fields {
		var v uint64
		rem := f.bits
		for rem > 0 {
			byteIdx := bitpos / 8
			bitOff := bitpos % 8
			avail := 8 - bitOff
			take := rem
			if take > avail {
				take = avail
			}
			chunk := uint64(buf[byteIdx]) >> uint(avail-take) & ((1 << uint(take)) - 1)
			v = v<<uint(take) | chunk
			bitpos += take
			rem -= take
		}
		p.SetFieldByID(f.id, v)
	}
	p.AddHeader(name)
	return src[s.bytes:], nil
}

// Marshal serializes the packet's present headers in order, followed by
// PayloadLen zero bytes.
func Marshal(p *Packet) ([]byte, error) {
	var out []byte
	var err error
	for _, h := range p.Headers {
		out, err = EncodeHeader(out, h, p)
		if err != nil {
			return nil, err
		}
	}
	out = append(out, make([]byte, p.PayloadLen)...)
	return out, nil
}

// ipv4HeaderChecksum computes the standard IPv4 header checksum over a
// serialized 20-byte header with its checksum field zeroed.
func ipv4HeaderChecksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(hdr[i : i+2]))
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// FixIPv4Checksum recomputes and stores "ipv4.csum" for the packet.
func FixIPv4Checksum(p *Packet) error {
	if !p.Has("ipv4") {
		return fmt.Errorf("packet: no ipv4 header present")
	}
	p.SetFieldByID(fidIPv4Csum, 0)
	raw, err := EncodeHeader(nil, "ipv4", p)
	if err != nil {
		return err
	}
	p.SetFieldByID(fidIPv4Csum, uint64(ipv4HeaderChecksum(raw)))
	return nil
}

// VerifyIPv4Checksum reports whether the stored checksum matches.
func VerifyIPv4Checksum(p *Packet) bool {
	want := p.FieldByID(fidIPv4Csum)
	saved := want
	p.SetFieldByID(fidIPv4Csum, 0)
	raw, err := EncodeHeader(nil, "ipv4", p)
	p.SetFieldByID(fidIPv4Csum, saved)
	if err != nil {
		return false
	}
	return uint64(ipv4HeaderChecksum(raw)) == want
}

// Pre-resolved IDs of the fields the packet fast paths touch (flow keys,
// checksums, the TCPPacket/UDPPacket constructors). Declared after the
// standard header registrations above so they resolve to the
// already-interned IDs.
var (
	fidEthType     = InternField("eth.type")
	fidIPv4Version = InternField("ipv4.version")
	fidIPv4IHL     = InternField("ipv4.ihl")
	fidIPv4TTL     = InternField("ipv4.ttl")
	fidIPv4Src     = InternField("ipv4.src")
	fidIPv4Dst     = InternField("ipv4.dst")
	fidIPv4Proto   = InternField("ipv4.proto")
	fidIPv4Csum    = InternField("ipv4.csum")
	fidTCPSport    = InternField("tcp.sport")
	fidTCPDport    = InternField("tcp.dport")
	fidTCPFlags    = InternField("tcp.flags")
	fidTCPOff      = InternField("tcp.off")
	fidUDPSport    = InternField("udp.sport")
	fidUDPDport    = InternField("udp.dport")
	fidUDPLen      = InternField("udp.len")
)
