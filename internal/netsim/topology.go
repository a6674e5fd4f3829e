package netsim

import (
	"fmt"
	"time"

	"flexnet/internal/packet"
)

// Handler receives packets arriving at a node. Implementations decide
// what to do (process through a device, consume at a host, and so on)
// and may call Node.Send to emit packets onward.
type Handler func(pkt *packet.Packet, inPort int)

// Node is a point in the topology: a switch, NIC, or host. Packet
// behaviour is supplied by its Handler; the topology layer only moves
// packets across links.
type Node struct {
	Name    string
	net     *Network
	ports   []*portEnd
	handler Handler
}

// portEnd is one side of a link attachment.
type portEnd struct {
	link *Link
	side int // 0 = link.a side, 1 = link.b side
}

// SetHandler installs the node's packet handler.
func (n *Node) SetHandler(h Handler) { n.handler = h }

// Ports returns the number of connected ports.
func (n *Node) Ports() int { return len(n.ports) }

// Send transmits pkt out the given port. Sending on an unconnected port
// counts as a drop. The packet is delivered to the neighbor after
// serialization + propagation delay, subject to the link queue.
func (n *Node) Send(pkt *packet.Packet, port int) {
	if port < 0 || port >= len(n.ports) {
		n.net.Drops++
		return
	}
	n.ports[port].send(n.net.sim, pkt)
}

// PortToward returns the local port number connected to the named
// neighbor, or -1.
func (n *Node) PortToward(neighbor string) int {
	for i, pe := range n.ports {
		if pe.peerNode().Name == neighbor {
			return i
		}
	}
	return -1
}

// Neighbors returns the names of directly connected nodes, by port.
func (n *Node) Neighbors() []string {
	out := make([]string, len(n.ports))
	for i, pe := range n.ports {
		out[i] = pe.peerNode().Name
	}
	return out
}

func (pe *portEnd) peerNode() *Node {
	if pe.side == 0 {
		return pe.link.b
	}
	return pe.link.a
}

func (pe *portEnd) peerPort() int {
	if pe.side == 0 {
		return pe.link.bPort
	}
	return pe.link.aPort
}

func (pe *portEnd) dir() *linkDir {
	return &pe.link.dirs[pe.side]
}

// fidIPv4ECN is the field send marks on a congested link.
var fidIPv4ECN = packet.InternField("ipv4.ecn")

// send runs the transmit side of a link direction — queue-occupancy
// math, tail drop, ECN marking — and schedules the arrival at the peer.
func (pe *portEnd) send(s *Sim, pkt *packet.Packet) {
	l := pe.link
	if l.Down {
		l.Drops++
		l.net.Drops++
		return
	}
	d := pe.dir()
	now := s.Now()
	if d.nextFree < now {
		d.nextFree = now
	}
	// Queueing delay is the wait until the transmitter frees up; the
	// queue bound is expressed in bytes awaiting transmission.
	queuedBytes := int(float64(d.nextFree-now) / 1e9 * float64(l.BandwidthBps) / 8.0)
	if l.QueueBytes > 0 && queuedBytes+pkt.Len() > l.QueueBytes {
		l.Drops++
		l.net.Drops++
		return
	}
	if l.ECNThresholdBytes > 0 && queuedBytes > l.ECNThresholdBytes && pkt.Has("ipv4") {
		pkt.SetFieldByID(fidIPv4ECN, 3)
	}
	ser := Time(float64(pkt.Len()*8) / float64(l.BandwidthBps) * 1e9)
	if ser <= 0 {
		ser = 1
	}
	depart := d.nextFree + ser
	d.nextFree = depart
	if qd := depart - now - ser; qd > d.maxQueueDelay {
		d.maxQueueDelay = qd
	}
	l.Delivered++
	s.AtPacket(depart+l.Delay, d.arrive, pkt, pe.peerPort())
}

// arrival returns the handler of a packet's arrival at peer, bound once
// per link direction at Connect. What can change while a packet is in
// flight is read when it fires: a link that fails meanwhile loses the
// packet, and the peer's handler is whichever is installed by then.
func (l *Link) arrival(peer *Node) Handler {
	return func(pkt *packet.Packet, inPort int) {
		if l.Down {
			l.Drops++
			l.net.Drops++
			return
		}
		l.net.Delivered++
		if peer.handler != nil {
			peer.handler(pkt, inPort)
		}
	}
}

// Link is a bidirectional link between two nodes. Each direction has its
// own transmitter and queue.
type Link struct {
	net          *Network
	a, b         *Node
	aPort        int
	bPort        int
	BandwidthBps uint64
	Delay        Time
	// QueueBytes bounds bytes awaiting transmission per direction
	// (0 = unbounded).
	QueueBytes int
	// ECNThresholdBytes, when positive, marks packets with ECN CE
	// (ipv4.ecn = 3) whenever the transmit queue exceeds it — the
	// switch-side half of DCTCP-style congestion control.
	ECNThresholdBytes int
	// Down simulates link/device failure: all traffic is dropped.
	// Change it with SetDown, which notifies topology subscribers; a
	// direct write fails traffic but routing never learns of it.
	Down bool
	// Removed marks a link administratively removed from the topology:
	// permanently down and excluded from LinkBetween lookups. Set via
	// Network.RemoveLink.
	Removed bool

	dirs [2]linkDir

	// Delivered counts packets accepted for transmission; Drops counts
	// packets lost to queue overflow or failure.
	Delivered uint64
	Drops     uint64
}

type linkDir struct {
	nextFree      Time
	maxQueueDelay Time
	// arrive delivers a packet sent in this direction to the far end.
	arrive Handler
}

// Ends returns the connected node names.
func (l *Link) Ends() (string, string) { return l.a.Name, l.b.Name }

// SetDown fails (true) or restores (false) the link and notifies
// topology subscribers on every transition. It is the preferred way to
// change link state: subscribers (the fabric's routing engine) use the
// events to mark exactly the affected route state dirty.
func (l *Link) SetDown(down bool) {
	if l.Down == down {
		return
	}
	l.Down = down
	kind := TopoLinkUp
	if down {
		kind = TopoLinkDown
	}
	l.net.emit(TopoEvent{Kind: kind, Link: l})
}

// MaxQueueDelay returns the worst queueing delay observed per direction.
func (l *Link) MaxQueueDelay() (ab, ba Time) {
	return l.dirs[0].maxQueueDelay, l.dirs[1].maxQueueDelay
}

// LinkParams configures a link.
type LinkParams struct {
	BandwidthBps uint64
	Delay        Time
	QueueBytes   int
}

// DefaultLink is a 10 Gb/s link with 2 µs delay and a 512 KB buffer.
func DefaultLink() LinkParams {
	return LinkParams{BandwidthBps: 10_000_000_000, Delay: 2 * time.Microsecond, QueueBytes: 512 << 10}
}

// TopoEventKind classifies a topology-change event.
type TopoEventKind uint8

// Topology-change event kinds. Node removal has no substrate support
// (ports are positional), so a device leaving service is modelled by
// removing or downing its links.
const (
	// TopoNodeAdded: a node joined the topology (Event.Node).
	TopoNodeAdded TopoEventKind = iota
	// TopoLinkAdded: a link was connected (Event.Link).
	TopoLinkAdded
	// TopoLinkUp: a down link was restored.
	TopoLinkUp
	// TopoLinkDown: a link failed.
	TopoLinkDown
	// TopoLinkRemoved: a link was administratively removed (permanent).
	TopoLinkRemoved
)

func (k TopoEventKind) String() string {
	switch k {
	case TopoNodeAdded:
		return "node-added"
	case TopoLinkAdded:
		return "link-added"
	case TopoLinkUp:
		return "link-up"
	case TopoLinkDown:
		return "link-down"
	case TopoLinkRemoved:
		return "link-removed"
	default:
		return fmt.Sprintf("topo-event(%d)", uint8(k))
	}
}

// TopoEvent is one topology change, delivered synchronously to
// subscribers at the point of mutation (AddNode, Connect, SetDown,
// RemoveLink). Node is set for node events, Link for link events.
type TopoEvent struct {
	Kind TopoEventKind
	Node *Node
	Link *Link
}

// Network is a topology of nodes and links bound to a simulator.
type Network struct {
	sim   *Sim
	nodes map[string]*Node
	links []*Link
	subs  []func(TopoEvent)

	// Delivered and Drops aggregate across all links.
	Delivered uint64
	Drops     uint64
}

// Subscribe registers fn to receive every subsequent topology-change
// event. Delivery is synchronous and in subscription order; fn must not
// mutate the topology.
func (nw *Network) Subscribe(fn func(TopoEvent)) {
	nw.subs = append(nw.subs, fn)
}

func (nw *Network) emit(ev TopoEvent) {
	for _, fn := range nw.subs {
		fn(ev)
	}
}

// NewNetwork creates an empty topology on sim.
func NewNetwork(sim *Sim) *Network {
	return &Network{sim: sim, nodes: map[string]*Node{}}
}

// Sim returns the bound simulator.
func (nw *Network) Sim() *Sim { return nw.sim }

// AddNode creates a node. Duplicate names panic (topology bugs are
// programming errors).
func (nw *Network) AddNode(name string) *Node {
	if _, dup := nw.nodes[name]; dup {
		panic(fmt.Sprintf("netsim: duplicate node %q", name))
	}
	n := &Node{Name: name, net: nw}
	nw.nodes[name] = n
	nw.emit(TopoEvent{Kind: TopoNodeAdded, Node: n})
	return n
}

// Node returns the named node, or nil.
func (nw *Network) Node(name string) *Node { return nw.nodes[name] }

// Nodes returns the number of nodes.
func (nw *Network) Nodes() int { return len(nw.nodes) }

// Connect links two nodes, allocating the next free port on each, and
// returns the link and the two port numbers.
func (nw *Network) Connect(a, b string, p LinkParams) (*Link, int, int) {
	na, nb := nw.nodes[a], nw.nodes[b]
	if na == nil || nb == nil {
		panic(fmt.Sprintf("netsim: connect %q-%q: unknown node", a, b))
	}
	l := &Link{
		net: nw, a: na, b: nb,
		BandwidthBps: p.BandwidthBps,
		Delay:        p.Delay,
		QueueBytes:   p.QueueBytes,
	}
	l.aPort = len(na.ports)
	l.bPort = len(nb.ports)
	l.dirs[0].arrive = l.arrival(nb)
	l.dirs[1].arrive = l.arrival(na)
	na.ports = append(na.ports, &portEnd{link: l, side: 0})
	nb.ports = append(nb.ports, &portEnd{link: l, side: 1})
	nw.links = append(nw.links, l)
	nw.emit(TopoEvent{Kind: TopoLinkAdded, Link: l})
	return l, l.aPort, l.bPort
}

// RemoveLink administratively removes a link: it is marked down and
// removed, excluded from LinkBetween, and subscribers are notified with
// TopoLinkRemoved. The link object stays in place (ports are positional)
// but never carries traffic again. Removing an already-removed link is a
// no-op.
func (nw *Network) RemoveLink(l *Link) {
	if l == nil || l.Removed {
		return
	}
	l.Removed = true
	l.Down = true
	nw.emit(TopoEvent{Kind: TopoLinkRemoved, Link: l})
}

// Links returns all links.
func (nw *Network) Links() []*Link { return nw.links }

// LinkBetween returns the first non-removed link between two nodes, or
// nil.
func (nw *Network) LinkBetween(a, b string) *Link {
	for _, l := range nw.links {
		if l.Removed {
			continue
		}
		x, y := l.Ends()
		if (x == a && y == b) || (x == b && y == a) {
			return l
		}
	}
	return nil
}

// ShortestPaths computes next-hop routing from every node to dst using
// BFS over up links (unit weight). The result maps node name → egress
// port toward dst.
func (nw *Network) ShortestPaths(dst string) map[string]int {
	if nw.nodes[dst] == nil {
		return nil
	}
	next := map[string]int{}
	visited := map[string]bool{dst: true}
	queue := []string{dst}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, pe := range nw.nodes[cur].ports {
			if pe.link.Down {
				continue
			}
			nb := pe.peerNode()
			if visited[nb.Name] {
				continue
			}
			visited[nb.Name] = true
			// The neighbor reaches dst via its port back to cur.
			next[nb.Name] = pe.peerPort()
			queue = append(queue, nb.Name)
		}
	}
	return next
}
