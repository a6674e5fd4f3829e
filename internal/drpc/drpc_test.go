package drpc

import (
	"testing"

	"flexnet/internal/netsim"
	"flexnet/internal/packet"
)

// simAfter schedules on sim, as the fabric's routers do.
func simAfter(sim *netsim.Sim) func(uint64, func()) {
	return func(d uint64, fn func()) { sim.After(netsim.Time(d), fn) }
}

// loopback wires two routers directly (no network) over one simulated
// clock: whatever either sends is delivered to the other synchronously.
func loopback() (*netsim.Sim, *Router, *Router) {
	sim := netsim.New(1)
	var seq uint64
	var a, b *Router
	a = NewRouter(1, &seq, nil, func(p *packet.Packet) { b.Deliver(p) }, simAfter(sim))
	b = NewRouter(2, &seq, nil, func(p *packet.Packet) { a.Deliver(p) }, simAfter(sim))
	return sim, a, b
}

func TestCallReply(t *testing.T) {
	_, a, b := loopback()
	if err := b.Register(ServicePing, PingHandler()); err != nil {
		t.Fatal(err)
	}
	var got uint64
	okSeen := false
	a.Call(2, ServicePing, 0, [3]uint64{777, 0, 0}, func(m Message, ok bool) {
		got = m.Args[0]
		okSeen = ok
	})
	if !okSeen || got != 777 {
		t.Fatalf("echo = %d ok=%v", got, okSeen)
	}
	if a.CallsSent != 1 || a.RepliesSeen != 1 || b.CallsServed != 1 {
		t.Fatalf("stats: sent=%d replies=%d served=%d", a.CallsSent, a.RepliesSeen, b.CallsServed)
	}
}

func TestUnknownServiceErrorReply(t *testing.T) {
	_, a, b := loopback()
	gotErr := false
	a.Call(2, 999, 0, [3]uint64{}, func(m Message, ok bool) { gotErr = !ok })
	if !gotErr {
		t.Fatal("no error reply for unknown service")
	}
	if b.UnknownCalls != 1 {
		t.Fatalf("unknown calls = %d", b.UnknownCalls)
	}
}

func TestNotifyOneWay(t *testing.T) {
	_, a, b := loopback()
	var seen []uint64
	b.Register(ServiceUser, func(from uint32, m Message) *Message {
		seen = append(seen, m.Args[0])
		return nil // one-way: no reply even though handler ran
	})
	a.Notify(2, ServiceUser, 0, [3]uint64{1, 0, 0})
	a.Notify(2, ServiceUser, 0, [3]uint64{2, 0, 0})
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Fatalf("seen = %v", seen)
	}
	if a.RepliesSeen != 0 {
		t.Fatal("one-way notify produced replies")
	}
}

func TestDuplicateRegister(t *testing.T) {
	_, a, _ := loopback()
	if err := a.Register(ServicePing, PingHandler()); err != nil {
		t.Fatal(err)
	}
	if err := a.Register(ServicePing, PingHandler()); err == nil {
		t.Fatal("duplicate register accepted")
	}
	a.Unregister(ServicePing)
	if err := a.Register(ServicePing, PingHandler()); err != nil {
		t.Fatalf("re-register after unregister: %v", err)
	}
}

func TestOrphanReply(t *testing.T) {
	_, a, b := loopback()
	b.Register(ServicePing, PingHandler())
	// Forge a reply with an unknown call id.
	forged := packet.New(99)
	forged.AddHeader("eth")
	forged.AddHeader("ipv4")
	forged.SetField("ipv4.src", 2)
	forged.SetField("ipv4.dst", 1)
	forged.AddHeader("drpc")
	forged.SetField("drpc.flags", FlagReply)
	forged.SetField("drpc.callid", 123456)
	if !a.Deliver(forged) {
		t.Fatal("reply not consumed")
	}
	if a.OrphanReplies != 1 {
		t.Fatalf("orphans = %d", a.OrphanReplies)
	}
	_ = b
}

func TestDeliverNonDRPC(t *testing.T) {
	_, a, _ := loopback()
	p := packet.UDPPacket(1, 1, 2, 3, 4, 10)
	if a.Deliver(p) {
		t.Fatal("consumed a non-drpc packet")
	}
}

func TestCallIDsDistinctAcrossRouters(t *testing.T) {
	// Two routers calling the same destination must not collide on call
	// IDs (the ID embeds the caller's IP).
	var seq uint64
	sink := map[uint64]int{}
	var target *Router
	after := simAfter(netsim.New(1))
	mkCaller := func(ip uint32) *Router {
		return NewRouter(ip, &seq, nil, func(p *packet.Packet) { target.Deliver(p) }, after)
	}
	target = NewRouter(9, &seq, nil, func(p *packet.Packet) {}, after)
	target.Register(ServicePing, func(from uint32, m Message) *Message {
		sink[m.CallID]++
		return nil // no reply needed
	})
	c1 := mkCaller(100)
	c2 := mkCaller(200)
	for i := 0; i < 10; i++ {
		c1.Call(9, ServicePing, 0, [3]uint64{}, nil)
		c2.Call(9, ServicePing, 0, [3]uint64{}, nil)
	}
	for id, n := range sink {
		if n != 1 {
			t.Fatalf("call id %d reused %d times", id, n)
		}
	}
	if len(sink) != 20 {
		t.Fatalf("distinct ids = %d", len(sink))
	}
}

func TestMessageRoundTripThroughPacket(t *testing.T) {
	var seq uint64
	var got Message
	var from uint32
	after := simAfter(netsim.New(1))
	recv := NewRouter(7, &seq, nil, nil, after)
	recv.Register(ServiceUser, func(f uint32, m Message) *Message {
		got = m
		from = f
		return nil
	})
	send := NewRouter(3, &seq, nil, func(p *packet.Packet) {
		// Serialize to wire bytes and back: the drpc header must survive
		// a real parse.
		raw, err := packet.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		q := packet.New(0)
		if err := packet.StandardParseGraph().Parse(raw, q); err != nil {
			t.Fatal(err)
		}
		recv.Deliver(q)
	}, after)
	send.Notify(7, ServiceUser, 5, [3]uint64{0xDEADBEEF, 1 << 40, 7})
	if got.Args[0] != 0xDEADBEEF || got.Args[1] != 1<<40 || got.Args[2] != 7 || got.Method != 5 {
		t.Fatalf("message corrupted over the wire: %+v", got)
	}
	if from != 3 {
		t.Fatalf("from = %d", from)
	}
}
