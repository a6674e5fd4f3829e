package netsim

import (
	"runtime"
	"testing"
	"time"

	"flexnet/internal/packet"
)

func line(t *testing.T, p LinkParams) (*Network, *Node, *Node) {
	t.Helper()
	s := New(1)
	nw := NewNetwork(s)
	a := nw.AddNode("a")
	b := nw.AddNode("b")
	nw.Connect("a", "b", p)
	return nw, a, b
}

func TestLinkDelivery(t *testing.T) {
	nw, a, b := line(t, LinkParams{BandwidthBps: 8_000_000_000, Delay: time.Microsecond})
	var got *packet.Packet
	var at Time
	b.SetHandler(func(p *packet.Packet, inPort int) {
		got = p
		at = nw.sim.Now()
		if inPort != 0 {
			t.Errorf("inPort = %d", inPort)
		}
	})
	pkt := packet.UDPPacket(1, 1, 2, 3, 4, 1000-14-20-8) // 1000B total
	a.Send(pkt, 0)
	nw.sim.Run()
	if got == nil {
		t.Fatal("packet not delivered")
	}
	// 1000 B at 8 Gb/s = 1 µs serialization + 1 µs propagation.
	if at != 2*time.Microsecond {
		t.Fatalf("arrival at %v, want 2µs", at)
	}
}

func TestLinkSerializationQueueing(t *testing.T) {
	nw, a, b := line(t, LinkParams{BandwidthBps: 8_000_000, Delay: 0})
	var arrivals []Time
	b.SetHandler(func(p *packet.Packet, inPort int) {
		arrivals = append(arrivals, nw.sim.Now())
	})
	// Three 1000-byte packets sent back-to-back: 1 ms serialization each.
	for i := 0; i < 3; i++ {
		a.Send(packet.UDPPacket(uint64(i), 1, 2, 3, 4, 958), 0)
	}
	nw.sim.Run()
	if len(arrivals) != 3 {
		t.Fatalf("delivered %d", len(arrivals))
	}
	for i, want := range []Time{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond} {
		if arrivals[i] != want {
			t.Fatalf("arrival[%d] = %v, want %v", i, arrivals[i], want)
		}
	}
}

func TestLinkQueueOverflow(t *testing.T) {
	nw, a, b := line(t, LinkParams{BandwidthBps: 8_000_000, Delay: 0, QueueBytes: 2000})
	delivered := 0
	b.SetHandler(func(p *packet.Packet, inPort int) { delivered++ })
	for i := 0; i < 10; i++ {
		a.Send(packet.UDPPacket(uint64(i), 1, 2, 3, 4, 958), 0)
	}
	nw.sim.Run()
	l := nw.LinkBetween("a", "b")
	if l.Drops == 0 {
		t.Fatal("no drops with tiny buffer")
	}
	if uint64(delivered)+l.Drops != 10 {
		t.Fatalf("conservation broken: %d + %d != 10", delivered, l.Drops)
	}
}

func TestLinkDown(t *testing.T) {
	nw, a, b := line(t, DefaultLink())
	delivered := 0
	b.SetHandler(func(p *packet.Packet, inPort int) { delivered++ })
	l := nw.LinkBetween("a", "b")
	l.Down = true
	a.Send(packet.UDPPacket(1, 1, 2, 3, 4, 100), 0)
	nw.sim.Run()
	if delivered != 0 || l.Drops != 1 {
		t.Fatalf("down link delivered=%d drops=%d", delivered, l.Drops)
	}
}

// A link that fails between Send and arrival loses the packet it was
// carrying: accepted for transmission, never handed to the peer.
func TestLinkFailsWithPacketInFlight(t *testing.T) {
	nw, a, b := line(t, DefaultLink())
	called := false
	b.SetHandler(func(p *packet.Packet, inPort int) { called = true })
	l := nw.LinkBetween("a", "b")
	a.Send(packet.UDPPacket(1, 1, 2, 3, 4, 100), 0)
	nw.sim.After(l.Delay/2, func() { l.SetDown(true) })
	nw.sim.Run()
	if called {
		t.Fatal("handler called for a packet in flight on a failed link")
	}
	if l.Delivered != 1 || l.Drops != 1 || nw.Drops != 1 || nw.Delivered != 0 {
		t.Fatalf("link delivered=%d drops=%d, network drops=%d delivered=%d; want 1 1 1 0",
			l.Delivered, l.Drops, nw.Drops, nw.Delivered)
	}
}

func TestSendInvalidPort(t *testing.T) {
	nw, a, _ := line(t, DefaultLink())
	a.Send(packet.UDPPacket(1, 1, 2, 3, 4, 100), 5)
	if nw.Drops != 1 {
		t.Fatalf("network drops = %d", nw.Drops)
	}
}

func TestBidirectional(t *testing.T) {
	nw, a, b := line(t, DefaultLink())
	gotA, gotB := 0, 0
	a.SetHandler(func(p *packet.Packet, inPort int) { gotA++ })
	b.SetHandler(func(p *packet.Packet, inPort int) { gotB++ })
	a.Send(packet.UDPPacket(1, 1, 2, 3, 4, 10), 0)
	b.Send(packet.UDPPacket(2, 2, 1, 4, 3, 10), 0)
	nw.sim.Run()
	if gotA != 1 || gotB != 1 {
		t.Fatalf("gotA=%d gotB=%d", gotA, gotB)
	}
}

func TestShortestPaths(t *testing.T) {
	s := New(1)
	nw := NewNetwork(s)
	// h1 - s1 - s2 - h2, plus a detour s1 - s3 - s2.
	for _, n := range []string{"h1", "s1", "s2", "s3", "h2"} {
		nw.AddNode(n)
	}
	nw.Connect("h1", "s1", DefaultLink())
	nw.Connect("s1", "s2", DefaultLink())
	nw.Connect("s1", "s3", DefaultLink())
	nw.Connect("s3", "s2", DefaultLink())
	nw.Connect("s2", "h2", DefaultLink())

	next := nw.ShortestPaths("h2")
	if len(next) != 4 {
		t.Fatalf("routes = %v", next)
	}
	// h1's next hop is via its only port (0) toward s1.
	if next["h1"] != 0 {
		t.Fatalf("h1 next = %d", next["h1"])
	}
	// s1 should go directly to s2 (port index 1: h1=0, s2=1, s3=2).
	if next["s1"] != 1 {
		t.Fatalf("s1 next = %d", next["s1"])
	}

	// Break s1-s2; route must detour via s3.
	nw.LinkBetween("s1", "s2").Down = true
	next = nw.ShortestPaths("h2")
	if next["s1"] != 2 {
		t.Fatalf("after failure s1 next = %d, want detour port 2", next["s1"])
	}
}

func TestEndToEndRouting(t *testing.T) {
	// Packets actually flow h1→s1→s2→h2 using ShortestPaths handlers.
	s := New(1)
	nw := NewNetwork(s)
	for _, n := range []string{"h1", "s1", "s2", "h2"} {
		nw.AddNode(n)
	}
	nw.Connect("h1", "s1", DefaultLink())
	nw.Connect("s1", "s2", DefaultLink())
	nw.Connect("s2", "h2", DefaultLink())
	routes := nw.ShortestPaths("h2")
	for _, sw := range []string{"s1", "s2"} {
		sw := sw
		nw.Node(sw).SetHandler(func(p *packet.Packet, inPort int) {
			p.Trace = append(p.Trace, sw)
			nw.Node(sw).Send(p, routes[sw])
		})
	}
	var got *packet.Packet
	nw.Node("h2").SetHandler(func(p *packet.Packet, inPort int) { got = p })
	pkt := packet.UDPPacket(1, 1, 2, 3, 4, 100)
	nw.Node("h1").Send(pkt, routes["h1"])
	s.Run()
	if got == nil {
		t.Fatal("packet lost")
	}
	if len(got.Trace) != 2 || got.Trace[0] != "s1" || got.Trace[1] != "s2" {
		t.Fatalf("trace = %v", got.Trace)
	}
}

func TestSourceCBR(t *testing.T) {
	s := New(1)
	var seq uint64
	count := 0
	src := NewSource(s, FlowSpec{Proto: packet.ProtoUDP, PacketLen: 100}, &seq, func(p *packet.Packet) { count++ })
	src.StartCBR(1000) // 1000 pps for 100 ms = 100 packets
	s.RunUntil(100 * time.Millisecond)
	if count < 99 || count > 101 {
		t.Fatalf("CBR emitted %d, want ~100", count)
	}
	src.Stop()
	s.RunFor(50 * time.Millisecond)
	if int(src.Sent) != count {
		t.Fatalf("sent after stop: %d vs %d", src.Sent, count)
	}
}

func TestSourcePoissonRate(t *testing.T) {
	s := New(7)
	var seq uint64
	count := 0
	src := NewSource(s, FlowSpec{Proto: packet.ProtoUDP}, &seq, func(p *packet.Packet) { count++ })
	src.StartPoisson(10000)
	s.RunUntil(time.Second)
	if count < 9000 || count > 11000 {
		t.Fatalf("poisson emitted %d, want ~10000", count)
	}
}

func TestSourceVLANTagging(t *testing.T) {
	s := New(1)
	var seq uint64
	var got *packet.Packet
	src := NewSource(s, FlowSpec{Proto: packet.ProtoTCP, VLAN: 42, PacketLen: 10}, &seq, func(p *packet.Packet) { got = p })
	src.EmitOne(0)
	if got == nil || !got.Has("vlan") || got.Field("vlan.vid") != 42 {
		t.Fatalf("vlan tagging broken: %v", got)
	}
	if h := got.Headers.Names(); len(h) != 4 || h[0] != "eth" || h[1] != "vlan" || h[2] != "ipv4" || h[3] != "tcp" {
		t.Fatalf("header order: %v", got.Headers)
	}
}

// TestSourceVLANTagAllocFree: a source takes its packets from the
// simulator's pool, and tagging inserts into the packet's inline chain
// and sets fields by pre-interned ID, so once its packets come back to
// the pool neither a tagged nor an untagged CBR source allocates.
func TestSourceVLANTagAllocFree(t *testing.T) {
	perPkt := func(vlan uint64) float64 {
		s := New(1)
		var seq, sent uint64
		src := NewSource(s, FlowSpec{Proto: packet.ProtoUDP, VLAN: vlan, PacketLen: 64}, &seq, func(p *packet.Packet) {
			sent++
			s.Packets().Release(p)
		})
		src.StartCBR(1e6)
		s.RunFor(time.Millisecond) // warm: the heap and slot table reach their size
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := sent
		s.RunFor(10 * time.Millisecond)
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(sent-start)
	}
	untagged, tagged := perPkt(0), perPkt(42)
	t.Logf("allocations per packet: untagged %.2f, tagged %.2f", untagged, tagged)
	if untagged > 0.01 || tagged > 0.01 { // 0.01: a stray runtime allocation, not one per packet
		t.Fatalf("a VLAN-tagged packet costs %.2f allocations, an untagged one %.2f; want 0", tagged, untagged)
	}
}

// TestNetworkReleasesWhatItDrops: a packet sent on an unconnected port,
// sent on a failed link, lost in flight when its link fails, dropped by
// a full queue or delivered to a node with no handler ends its life in
// the network, which releases it to the simulator's pool.
func TestNetworkReleasesWhatItDrops(t *testing.T) {
	nw, a, _ := line(t, LinkParams{BandwidthBps: 1_000_000, Delay: time.Millisecond, QueueBytes: 1500})
	s, l := nw.sim, nw.Links()[0]
	pool := s.Packets()
	send := func(port int) { a.Send(pool.UDPPacket(1, 1, 2, 3, 4, 1000), port) }
	send(7) // unconnected port
	send(0) // delivered to b, which has no handler
	send(0) // past the queue bound: the first takes 8 ms to serialize
	s.RunFor(10 * time.Millisecond)
	send(0) // in flight when the link fails
	l.SetDown(true)
	send(0) // on a failed link
	s.Run()
	if pool.Live() != 0 || pool.Free() != pool.Peak() {
		t.Fatalf("pool: %d live, %d free, peak %d; want every packet back", pool.Live(), pool.Free(), pool.Peak())
	}
	if nw.Drops != 4 || nw.Delivered != 1 {
		t.Fatalf("drops %d, delivered %d; want 4 and 1", nw.Drops, nw.Delivered)
	}
}

func TestSineRateEnvelope(t *testing.T) {
	s := New(3)
	var seq uint64
	count := 0
	src := NewSource(s, FlowSpec{Proto: packet.ProtoTCP}, &seq, func(p *packet.Packet) { count++ })
	w := NewSineRate(src, 0, 10000, time.Second, 10*time.Millisecond)
	// Rate at phase 0 is min; at half period it is max.
	if r := w.RateAt(0); r != 0 {
		t.Fatalf("rate at 0 = %f", r)
	}
	if r := w.RateAt(500 * time.Millisecond); r < 9999 {
		t.Fatalf("rate at half period = %f", r)
	}
	w.Start()
	s.RunUntil(time.Second)
	// Mean of sine between 0 and max is max/2 → ~5000 packets in 1 s.
	if count < 4000 || count > 6000 {
		t.Fatalf("sine source emitted %d, want ~5000", count)
	}
	w.Stop()
	before := count
	s.RunFor(100 * time.Millisecond)
	if count != before {
		t.Fatal("sine source kept emitting after stop")
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate node did not panic")
		}
	}()
	nw := NewNetwork(New(1))
	nw.AddNode("x")
	nw.AddNode("x")
}

func TestPortTowardAndNeighbors(t *testing.T) {
	s := New(1)
	nw := NewNetwork(s)
	nw.AddNode("a")
	nw.AddNode("b")
	nw.AddNode("c")
	nw.Connect("a", "b", DefaultLink())
	nw.Connect("a", "c", DefaultLink())
	a := nw.Node("a")
	if a.PortToward("c") != 1 || a.PortToward("b") != 0 || a.PortToward("zz") != -1 {
		t.Fatalf("PortToward broken: %v", a.Neighbors())
	}
	nb := a.Neighbors()
	if len(nb) != 2 || nb[0] != "b" || nb[1] != "c" {
		t.Fatalf("neighbors = %v", nb)
	}
}
