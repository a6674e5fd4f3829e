package netsim

import (
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
		at = nw.Sim().Now()
		if inPort != 0 {
			t.Errorf("inPort = %d", inPort)
		}
	})
	pkt := packet.UDPPacket(1, 1, 2, 3, 4, 1000-14-20-8) // 1000B total
	a.Send(pkt, 0)
	nw.Sim().Run()
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
		arrivals = append(arrivals, nw.Sim().Now())
	})
	// Three 1000-byte packets sent back-to-back: 1 ms serialization each.
	for i := 0; i < 3; i++ {
		a.Send(packet.UDPPacket(uint64(i), 1, 2, 3, 4, 958), 0)
	}
	nw.Sim().Run()
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
	nw.Sim().Run()
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
	nw.Sim().Run()
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
	nw.Sim().After(l.Delay/2, func() { l.SetDown(true) })
	nw.Sim().Run()
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
	nw.Sim().Run()
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
	if got.Headers[0] != "eth" || got.Headers[1] != "vlan" || got.Headers[2] != "ipv4" {
		t.Fatalf("header order: %v", got.Headers)
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

func TestLatencySink(t *testing.T) {
	s := New(1)
	k := NewLatencySink(s)
	mk := func(sentAt uint64) *packet.Packet {
		p := packet.UDPPacket(1, 1, 2, 3, 4, 86)
		p.StampSent(sentAt)
		return p
	}
	s.At(100*time.Microsecond, func() {
		for i := 0; i < 100; i++ {
			k.Consume(mk(uint64(i) * 1000)) // latencies 100000-i*1000
		}
	})
	s.Run()
	if k.Received != 100 {
		t.Fatalf("received = %d", k.Received)
	}
	if k.Percentile(0) >= k.Percentile(1) {
		t.Fatal("percentiles not ordered")
	}
	if k.Mean() == 0 {
		t.Fatal("mean = 0")
	}
	if k.Bytes != 100*128 {
		t.Fatalf("bytes = %d", k.Bytes)
	}
}

func TestTimeSeriesSample(t *testing.T) {
	s := New(1)
	ts := &TimeSeries{Name: "x"}
	v := 0.0
	Sample(s, ts, 10*time.Millisecond, func() float64 { v++; return v })
	s.RunUntil(100 * time.Millisecond)
	if len(ts.Values) != 10 {
		t.Fatalf("samples = %d", len(ts.Values))
	}
	if ts.Max() != 10 || ts.Mean() != 5.5 {
		t.Fatalf("max=%f mean=%f", ts.Max(), ts.Mean())
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
