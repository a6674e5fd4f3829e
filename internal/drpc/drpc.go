// Package drpc implements FlexNet's data-plane RPC (§3.4 "dRPCs"): the
// infrastructure program exposes a set of in-network services (state
// push, telemetry read, ping, discovery) that other devices and tenant
// datapaths invoke with packets, not control-plane software. Calls are
// carried in a dedicated header (packet.ProtoDRPC) and travel through
// the same simulated network as data traffic, so their cost and loss
// behaviour is the network's.
//
// Reliable delivery — CallOpt retries, at-most-once completion — is specified in DESIGN.md §10.2.
package drpc

import (
	"fmt"
	"math/rand"
	"sync"

	"flexnet/internal/packet"
)

// Well-known service IDs.
const (
	// ServicePing is a liveness echo.
	ServicePing uint64 = 2
	// ServiceStatePush receives logical state chunks (data-plane
	// migration).
	ServiceStatePush uint64 = 3
	// ServiceHA carries controller-replica coordination: heartbeats,
	// leader-election votes, replication syncs, and backlog fetches
	// (internal/controller/cluster, DESIGN.md §15).
	ServiceHA uint64 = 5
	// ServiceUser is the first ID available to tenant services.
	ServiceUser uint64 = 16
)

// Flags bits.
const (
	// FlagReply marks a response message.
	FlagReply uint64 = 1 << 0
	// FlagError marks a failed call.
	FlagError uint64 = 1 << 1
)

// Message is a parsed dRPC header.
type Message struct {
	Service uint64
	Method  uint64
	Flags   uint64
	CallID  uint64
	Args    [3]uint64
}

// The fields of the drpc header and of the IPv4 header a router
// originates, resolved once.
var (
	fidService   = packet.InternField("drpc.service")
	fidMethod    = packet.InternField("drpc.method")
	fidFlags     = packet.InternField("drpc.flags")
	fidCallID    = packet.InternField("drpc.callid")
	fidArgs      = [3]packet.FieldID{packet.InternField("drpc.arg0"), packet.InternField("drpc.arg1"), packet.InternField("drpc.arg2")}
	fidEthType   = packet.InternField("eth.type")
	fidIPVersion = packet.InternField("ipv4.version")
	fidIPIHL     = packet.InternField("ipv4.ihl")
	fidIPTTL     = packet.InternField("ipv4.ttl")
	fidIPProto   = packet.InternField("ipv4.proto")
	fidIPSrc     = packet.InternField("ipv4.src")
	fidIPDst     = packet.InternField("ipv4.dst")
)

// FromPacket extracts the message from a packet carrying a drpc header.
func FromPacket(p *packet.Packet) (Message, bool) {
	if !p.Headers.Has(packet.HeaderDRPC) {
		return Message{}, false
	}
	return Message{
		Service: p.FieldByID(fidService),
		Method:  p.FieldByID(fidMethod),
		Flags:   p.FieldByID(fidFlags),
		CallID:  p.FieldByID(fidCallID),
		Args: [3]uint64{
			p.FieldByID(fidArgs[0]),
			p.FieldByID(fidArgs[1]),
			p.FieldByID(fidArgs[2]),
		},
	}, true
}

// store writes the message into a packet's drpc fields.
func (m Message) store(p *packet.Packet) {
	_ = p.AddHeaderID(packet.HeaderDRPC) // cannot fail: newPacket's chain holds eth and ipv4 only
	p.SetFieldByID(fidService, m.Service)
	p.SetFieldByID(fidMethod, m.Method)
	p.SetFieldByID(fidFlags, m.Flags)
	p.SetFieldByID(fidCallID, m.CallID)
	for i, fid := range fidArgs {
		p.SetFieldByID(fid, m.Args[i])
	}
}

// Handler serves one service. It returns a reply message (flags are
// managed by the router) or nil for one-way notifications.
type Handler func(from uint32, m Message) *Message

// Transport injects a packet into the network on behalf of a router.
// The fabric provides this.
type Transport func(p *packet.Packet)

// Router is a device's dRPC endpoint: a service table plus pending-call
// tracking. One Router is attached per participating device (or
// controller host).
type Router struct {
	// IP is the router's address in the routed fabric.
	IP uint32

	mu       sync.Mutex
	services map[uint64]Handler
	pending  map[uint64]func(Message, bool)
	nextID   uint64
	send     Transport
	seq      *uint64
	pool     *packet.Pool

	// after schedules fn delayNs of simulated time from now: CallOpt's
	// timeouts and backoff and the interceptor's delay verdicts run on it.
	after func(delayNs uint64, fn func())
	// jrng supplies deterministic retry jitter (lazily seeded from IP).
	jrng *rand.Rand
	// icept, when set, inspects every transmitted packet (fault plane).
	icept Interceptor

	// Stats.
	CallsSent     uint64
	CallsServed   uint64
	RepliesSeen   uint64
	UnknownCalls  uint64
	OrphanReplies uint64
	// Retry/fault-path stats (see retry.go).
	Retries    uint64
	Timeouts   uint64
	Dropped    uint64
	Delayed    uint64
	Duplicated uint64
}

// NewRouter creates a router addressed by ip, sending through transport.
// seq supplies packet IDs (shared with the fabric) and pool the packets
// (the simulator's; nil allocates each one). The transport owns every
// packet it is given. after schedules on the simulated clock.
func NewRouter(ip uint32, seq *uint64, pool *packet.Pool, send Transport, after func(delayNs uint64, fn func())) *Router {
	return &Router{
		IP:       ip,
		services: map[uint64]Handler{},
		pending:  map[uint64]func(Message, bool){},
		send:     send,
		seq:      seq,
		pool:     pool,
		after:    after,
	}
}

// Register installs a service handler. Registering a duplicate ID is an
// error.
func (r *Router) Register(service uint64, h Handler) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.services[service]; dup {
		return fmt.Errorf("drpc: service %d already registered", service)
	}
	r.services[service] = h
	return nil
}

// Unregister removes a service.
func (r *Router) Unregister(service uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.services, service)
}

func (r *Router) newPacket(dst uint32, m Message) *packet.Packet {
	r.mu.Lock()
	*r.seq++
	id := *r.seq
	r.mu.Unlock()
	p := r.pool.New(id)
	// Neither add can fail: the chain is empty and has room for ChainCap.
	_ = p.AddHeaderID(packet.HeaderEth)
	p.SetFieldByID(fidEthType, packet.EtherTypeIPv4)
	_ = p.AddHeaderID(packet.HeaderIPv4)
	p.SetFieldByID(fidIPVersion, 4)
	p.SetFieldByID(fidIPIHL, 5)
	p.SetFieldByID(fidIPTTL, 64)
	p.SetFieldByID(fidIPProto, packet.ProtoDRPC)
	p.SetFieldByID(fidIPSrc, uint64(r.IP))
	p.SetFieldByID(fidIPDst, uint64(dst))
	m.store(p)
	return p
}

// Call sends a request to dst and registers cb for the reply. cb's bool
// is false when the reply carries FlagError.
func (r *Router) Call(dst uint32, service, method uint64, args [3]uint64, cb func(Message, bool)) {
	r.mu.Lock()
	r.nextID++
	id := r.nextID<<16 | uint64(r.IP)&0xffff // avoid cross-router collisions
	if cb != nil {
		r.pending[id] = cb
	}
	r.CallsSent++
	r.mu.Unlock()
	m := Message{Service: service, Method: method, CallID: id, Args: args}
	r.transmit(r.newPacket(dst, m))
}

// Notify sends a one-way message (no reply expected).
func (r *Router) Notify(dst uint32, service, method uint64, args [3]uint64) {
	r.mu.Lock()
	r.CallsSent++
	r.mu.Unlock()
	m := Message{Service: service, Method: method, Args: args}
	r.transmit(r.newPacket(dst, m))
}

// Deliver processes an arriving dRPC packet addressed to this router.
// It returns true when the packet was consumed. It reads p only during
// the call; the caller still owns it.
func (r *Router) Deliver(p *packet.Packet) bool {
	m, ok := FromPacket(p)
	if !ok {
		return false
	}
	from := uint32(p.Field("ipv4.src"))
	if m.Flags&FlagReply != 0 {
		r.mu.Lock()
		cb := r.pending[m.CallID]
		delete(r.pending, m.CallID)
		r.RepliesSeen++
		if cb == nil {
			r.OrphanReplies++
		}
		r.mu.Unlock()
		if cb != nil {
			cb(m, m.Flags&FlagError == 0)
		}
		return true
	}
	r.mu.Lock()
	h := r.services[m.Service]
	r.mu.Unlock()
	if h == nil {
		r.mu.Lock()
		r.UnknownCalls++
		r.mu.Unlock()
		if m.CallID != 0 {
			reply := Message{Service: m.Service, Method: m.Method, Flags: FlagReply | FlagError, CallID: m.CallID}
			r.transmit(r.newPacket(from, reply))
		}
		return true
	}
	r.mu.Lock()
	r.CallsServed++
	r.mu.Unlock()
	resp := h(from, m)
	if resp != nil && m.CallID != 0 {
		resp.Service = m.Service
		resp.CallID = m.CallID
		resp.Flags |= FlagReply
		r.transmit(r.newPacket(from, *resp))
	}
	return true
}

// PingHandler returns a ServicePing handler echoing arg0.
func PingHandler() Handler {
	return func(from uint32, m Message) *Message {
		return &Message{Args: [3]uint64{m.Args[0], 0, 0}}
	}
}
