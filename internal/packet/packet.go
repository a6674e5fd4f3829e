// Package packet models network packets for the FlexNet simulator.
//
// It provides two complementary views of a packet, mirroring how
// programmable data planes treat traffic:
//
//   - A wire view: byte slices with layered encode/decode in the style of
//     gopacket's DecodingLayer, used at the edges of the simulation.
//   - A PHV (parsed header vector) view: named header fields extracted by
//     a programmable parser, which match/action pipelines read and write.
//
// Field names use the "header.field" convention from P4 (for example
// "ipv4.dst" or "tcp.flags"). Values are carried as uint64; no header
// field modelled here is wider than 64 bits (MAC addresses are 48 bits).
//
// Internally the PHV is a dense vector indexed by interned FieldID (see
// intern.go), not a map: per-packet field access on the linked fast path
// is a bounds-checked array load, exactly as a compiled datapath would
// address a PHV slot. The string-keyed accessors remain for control-plane
// and test convenience.
//
// DESIGN.md §2 (S2) inventories the layer set; §7 documents the install-time linking fast path built on these views.
package packet

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Verdict is the fate assigned to a packet by a processing pipeline.
type Verdict uint8

const (
	// VerdictContinue means processing should continue to the next element.
	VerdictContinue Verdict = iota
	// VerdictForward means the packet leaves via Packet.EgressPort.
	VerdictForward
	// VerdictDrop means the packet is discarded.
	VerdictDrop
	// VerdictToController means the packet is punted to the control plane.
	VerdictToController
	// VerdictRecirculate means the packet re-enters the pipeline.
	VerdictRecirculate
)

func (v Verdict) String() string {
	switch v {
	case VerdictContinue:
		return "continue"
	case VerdictForward:
		return "forward"
	case VerdictDrop:
		return "drop"
	case VerdictToController:
		return "to-controller"
	case VerdictRecirculate:
		return "recirculate"
	default:
		return fmt.Sprintf("verdict(%d)", uint8(v))
	}
}

// Packet is a unit of traffic inside the simulator. A Packet carries its
// parsed header fields (the PHV), simulator metadata, and an optional
// payload length (payload bytes themselves are not materialized; only
// their length matters to the simulation).
//
// A Packet points into its own inline storage, so it is made by New or
// Clone and never copied by value.
type Packet struct {
	// ID is a unique packet identifier assigned by the traffic source.
	ID uint64

	// vals is the parsed header vector, indexed by FieldID. Invariant:
	// a slot is zero unless its presence bit is set, so the common
	// "absent reads as 0" access needs no presence check.
	vals []uint64
	// present is a bitset over FieldIDs marking which fields exist.
	present []uint64

	// Headers lists the header names present, in parse order.
	Headers []string
	// PayloadLen is the number of payload bytes beyond parsed headers.
	PayloadLen int

	// IngressPort and EgressPort are device-local port numbers.
	IngressPort int
	EgressPort  int

	// Epoch is the program version stamp applied at ingress parse time;
	// the runtime consistency machinery uses it to guarantee that one
	// packet is never processed by a mix of program versions.
	Epoch uint64

	// SentAt is the simulated time in nanoseconds at which a traffic
	// source or host sent the packet; HasSentAt is false on a packet
	// nothing stamped (see StampSent).
	SentAt    uint64
	HasSentAt bool

	// Trace, when non-nil, accumulates the names of processing elements
	// the packet visited; experiments use it to verify end-to-end paths.
	Trace []string

	// hdrBuf and presentBuf back Headers and present until they outgrow
	// them, which leaves the struct and the PHV as a packet's only
	// allocations: a full Eth/IPv4/L4 chain has room for one more header,
	// and the bitset covers inlinePresentWords*64 interned fields.
	hdrBuf     [4]string
	presentBuf [inlinePresentWords]uint64
}

const inlinePresentWords = 4

// New creates an empty packet with the given id. The PHV is sized to the
// current intern table so steady-state field access never reallocates.
func New(id uint64) *Packet { return newSized(id, NumFieldIDs()) }

// newSized is New for a PHV of n fields.
func newSized(id uint64, n int) *Packet {
	p := &Packet{ID: id, vals: make([]uint64, n)}
	p.Headers = p.hdrBuf[:0]
	if words := (n + 63) / 64; words <= inlinePresentWords {
		p.present = p.presentBuf[:words]
	} else {
		p.present = make([]uint64, words)
	}
	return p
}

// Clone deep-copies the packet. Clones are used when a device replicates
// or recirculates traffic.
func (p *Packet) Clone() *Packet {
	q := &Packet{
		ID:          p.ID,
		vals:        append([]uint64(nil), p.vals...),
		PayloadLen:  p.PayloadLen,
		IngressPort: p.IngressPort,
		EgressPort:  p.EgressPort,
		Epoch:       p.Epoch,
		SentAt:      p.SentAt,
		HasSentAt:   p.HasSentAt,
	}
	// append copies into the clone's own inline storage while it fits,
	// and allocates past it.
	q.Headers = append(q.hdrBuf[:0], p.Headers...)
	q.present = append(q.presentBuf[:0], p.present...)
	if p.Trace != nil {
		q.Trace = append([]string(nil), p.Trace...)
	}
	return q
}

// StampSent records now, in simulated nanoseconds, as the time the packet
// was sent; latency sinks read it back from SentAt.
func (p *Packet) StampSent(now uint64) {
	p.SentAt, p.HasSentAt = now, true
}

// Has reports whether the named header was parsed.
func (p *Packet) Has(header string) bool {
	for _, h := range p.Headers {
		if h == header {
			return true
		}
	}
	return false
}

// AddHeader records that the named header is present. Adding a header that
// is already present is a no-op.
func (p *Packet) AddHeader(header string) {
	if !p.Has(header) {
		p.Headers = append(p.Headers, header)
	}
}

// RemoveHeader removes the named header and all of its fields.
func (p *Packet) RemoveHeader(header string) {
	out := p.Headers[:0]
	for _, h := range p.Headers {
		if h != header {
			out = append(out, h)
		}
	}
	p.Headers = out
	for _, id := range HeaderFieldIDs(header) {
		p.clearField(id)
	}
}

// grow extends the PHV to cover FieldID i (fields interned after this
// packet was created).
func (p *Packet) grow(i int) {
	for len(p.vals) <= i {
		p.vals = append(p.vals, 0)
	}
	for len(p.present) <= i/64 {
		p.present = append(p.present, 0)
	}
}

// FieldByID returns the value of the field, or 0 if absent. This is the
// linked fast path: one bounds check and one load.
func (p *Packet) FieldByID(id FieldID) uint64 {
	if i := int(id); i >= 0 && i < len(p.vals) {
		return p.vals[i]
	}
	return 0
}

// FieldOKByID returns the value and whether the field is present.
func (p *Packet) FieldOKByID(id FieldID) (uint64, bool) {
	i := int(id)
	if i < 0 || i >= len(p.vals) {
		return 0, false
	}
	if p.present[i/64]&(1<<(uint(i)%64)) == 0 {
		return 0, false
	}
	return p.vals[i], true
}

// SetFieldByID sets the field by interned ID.
func (p *Packet) SetFieldByID(id FieldID, v uint64) {
	i := int(id)
	if i < 0 {
		return
	}
	if i >= len(p.vals) {
		p.grow(i)
	}
	p.vals[i] = v
	p.present[i/64] |= 1 << (uint(i) % 64)
}

func (p *Packet) clearField(id FieldID) {
	i := int(id)
	if i < 0 || i >= len(p.vals) {
		return
	}
	p.vals[i] = 0
	if i/64 < len(p.present) {
		p.present[i/64] &^= 1 << (uint(i) % 64)
	}
}

// Field returns the value of the named field, or 0 if absent.
func (p *Packet) Field(name string) uint64 {
	id, ok := FieldIDOf(name)
	if !ok {
		return 0
	}
	return p.FieldByID(id)
}

// FieldOK returns the value and whether the field is present.
func (p *Packet) FieldOK(name string) (uint64, bool) {
	id, ok := FieldIDOf(name)
	if !ok {
		return 0, false
	}
	return p.FieldOKByID(id)
}

// SetField sets the named field, interning the name on first use.
func (p *Packet) SetField(name string, v uint64) {
	p.SetFieldByID(InternField(name), v)
}

// NumFields returns the number of fields present in the PHV.
func (p *Packet) NumFields() int {
	n := 0
	for _, w := range p.present {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// fieldIDs appends the IDs of all present fields to dst.
func (p *Packet) fieldIDs(dst []FieldID) []FieldID {
	for wi, w := range p.present {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, FieldID(wi*64+bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// Len returns the total simulated length in bytes: the sum of the sizes
// of present headers plus the payload length.
func (p *Packet) Len() int {
	n := p.PayloadLen
	for _, h := range p.Headers {
		n += HeaderBytes(h)
	}
	return n
}

// FlowKey returns the canonical 5-tuple flow key of the packet. Packets
// without an IPv4 header hash to a degenerate key of their ingress port.
func (p *Packet) FlowKey() FlowKey {
	var sport, dport uint64
	switch p.FieldByID(fidIPv4Proto) {
	case ProtoUDP:
		sport, dport = p.FieldByID(fidUDPSport), p.FieldByID(fidUDPDport)
	default:
		sport, dport = p.FieldByID(fidTCPSport), p.FieldByID(fidTCPDport)
	}
	return FlowKey{
		SrcIP:   uint32(p.FieldByID(fidIPv4Src)),
		DstIP:   uint32(p.FieldByID(fidIPv4Dst)),
		Proto:   uint8(p.FieldByID(fidIPv4Proto)),
		SrcPort: uint16(sport),
		DstPort: uint16(dport),
	}
}

// FlowKey identifies a transport flow.
type FlowKey struct {
	SrcIP, DstIP     uint32
	SrcPort, DstPort uint16
	Proto            uint8
}

func (k FlowKey) String() string {
	return fmt.Sprintf("%s:%d>%s:%d/%d", ipString(k.SrcIP), k.SrcPort, ipString(k.DstIP), k.DstPort, k.Proto)
}

// Reverse returns the key of the opposite direction of the flow.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{SrcIP: k.DstIP, DstIP: k.SrcIP, SrcPort: k.DstPort, DstPort: k.SrcPort, Proto: k.Proto}
}

// Hash returns a 64-bit FNV-1a hash of the key, used by sketches and ECMP.
func (k FlowKey) Hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64, bytes int) {
		for i := 0; i < bytes; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mix(uint64(k.SrcIP), 4)
	mix(uint64(k.DstIP), 4)
	mix(uint64(k.SrcPort), 2)
	mix(uint64(k.DstPort), 2)
	mix(uint64(k.Proto), 1)
	return h
}

func ipString(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// IP builds a uint32 IPv4 address from dotted components.
func IP(a, b, c, d byte) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}

// String renders a compact, deterministic description of the packet.
func (p *Packet) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pkt %d [%s]", p.ID, strings.Join(p.Headers, ","))
	ids := p.fieldIDs(nil)
	keys := make([]string, 0, len(ids))
	for _, id := range ids {
		keys = append(keys, FieldIDName(id))
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%d", k, p.Field(k))
	}
	return b.String()
}
