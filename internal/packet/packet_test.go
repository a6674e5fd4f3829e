package packet

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

// builtSink keeps the packets TestBuildersUnchanged sizes on the heap.
var builtSink *Packet

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := TCPPacket(1, IP(10, 0, 0, 1), IP(10, 0, 0, 2), 1234, 80, TCPSyn, 100)
	raw, err := Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	wantLen := 14 + 20 + 20 + 100
	if len(raw) != wantLen {
		t.Fatalf("wire length = %d, want %d", len(raw), wantLen)
	}

	q := New(1)
	if err := StandardParseGraph().Parse(raw, q); err != nil {
		t.Fatal(err)
	}
	if !q.Has("eth") || !q.Has("ipv4") || !q.Has("tcp") {
		t.Fatalf("parsed headers = %v", q.Headers)
	}
	for _, f := range []string{"ipv4.src", "ipv4.dst", "tcp.sport", "tcp.dport", "tcp.flags"} {
		if q.Field(f) != p.Field(f) {
			t.Errorf("field %s = %d, want %d", f, q.Field(f), p.Field(f))
		}
	}
	if q.PayloadLen != 100 {
		t.Errorf("payload = %d, want 100", q.PayloadLen)
	}
}

func TestFieldRoundTripProperty(t *testing.T) {
	// Property: any values written into header fields survive
	// encode→decode modulo field-width masking.
	f := func(src, dst uint32, sport, dport uint16, flags uint16, seq, ack uint32) bool {
		p := TCPPacket(1, src, dst, sport, dport, uint64(flags&0x1ff), 0)
		p.SetField("tcp.seq", uint64(seq))
		p.SetField("tcp.ack", uint64(ack))
		raw, err := Marshal(p)
		if err != nil {
			return false
		}
		q := New(2)
		if err := StandardParseGraph().Parse(raw, q); err != nil {
			return false
		}
		return q.Field("ipv4.src") == uint64(src) &&
			q.Field("ipv4.dst") == uint64(dst) &&
			q.Field("tcp.seq") == uint64(seq) &&
			q.Field("tcp.ack") == uint64(ack) &&
			q.Field("tcp.flags") == uint64(flags&0x1ff)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

func TestVLANParse(t *testing.T) {
	p := UDPPacket(1, IP(10, 0, 0, 1), IP(10, 0, 0, 2), 53, 53, 0)
	if err := p.TagVLAN(42); err != nil {
		t.Fatal(err)
	}
	raw, err := Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	q := New(0)
	if err := StandardParseGraph().Parse(raw, q); err != nil {
		t.Fatal(err)
	}
	if !q.Has("vlan") || q.Field("vlan.vid") != 42 {
		t.Fatalf("vlan not parsed: %v", q)
	}
	if !q.Has("udp") || q.Field("udp.dport") != 53 {
		t.Fatalf("udp not parsed: %v", q)
	}
}

func TestShortBuffer(t *testing.T) {
	p := TCPPacket(1, 1, 2, 3, 4, 0, 0)
	raw, _ := Marshal(p)
	q := New(0)
	if err := StandardParseGraph().Parse(raw[:20], q); err == nil {
		t.Fatal("parsing truncated packet succeeded")
	}
}

func TestCloneIndependence(t *testing.T) {
	p := TCPPacket(1, 1, 2, 3, 4, 0, 10)
	q := p.Clone()
	q.SetField("ipv4.dst", 99)
	q.AddHeader("vlan")
	if p.Field("ipv4.dst") == 99 || p.Has("vlan") {
		t.Fatal("clone shares state with original")
	}
}

// TestCloneInlineStorage: a packet's PHV and presence bitset live in the
// struct until they outgrow it, so a clone must point at its own copies.
// Nothing done to either packet — headers added and removed, a field set
// that was interned after both were made, a field past the inline PHV —
// may show on the other.
func TestCloneInlineStorage(t *testing.T) {
	p := TCPPacket(1, 1, 2, 3, 4, TCPSyn, 10)
	q := p.Clone()
	pWas, qWas := p.String(), q.String()
	if pWas != qWas {
		t.Fatalf("clone differs from original:\n%s\n%s", qWas, pWas)
	}
	// step applies fn to one packet and requires the other to read as before.
	step := func(what string, changed, other *Packet, otherWas *string, fn func(*Packet)) {
		t.Helper()
		before := changed.String()
		fn(changed)
		if changed.String() == before {
			t.Fatalf("%s: changed nothing", what)
		}
		if got := other.String(); got != *otherWas {
			t.Fatalf("%s: the other packet changed:\n%s\nwas\n%s", what, got, *otherWas)
		}
	}
	onClone := func(what string, fn func(*Packet)) { step(what+" on the clone", q, p, &pWas, fn); qWas = q.String() }
	onOrig := func(what string, fn func(*Packet)) { step(what+" on the original", p, q, &qWas, fn); pWas = p.String() }

	onClone("fourth header", func(x *Packet) { x.AddHeader("vlan") })
	onOrig("fourth header", func(x *Packet) { x.AddHeader("int") })
	onClone("fifth header", func(x *Packet) { x.AddHeader("flexepoch") })
	onOrig("fifth header", func(x *Packet) { x.AddHeader("drpc") })
	onClone("RemoveHeader", func(x *Packet) { x.RemoveHeader("tcp") })
	onOrig("RemoveHeader", func(x *Packet) { x.RemoveHeader("ipv4") })
	if want := []string{"eth", "ipv4", "vlan", "flexepoch"}; !reflect.DeepEqual(q.Headers.Names(), want) {
		t.Fatalf("clone headers = %v, want %v", q.Headers, want)
	}
	if want := []string{"eth", "tcp", "int", "drpc"}; !reflect.DeepEqual(p.Headers.Names(), want) {
		t.Fatalf("original headers = %v, want %v", p.Headers, want)
	}

	late := InternField("clonetest.late")
	if int(late) < len(p.vals) {
		t.Fatalf("field %d was interned before the packets were made (PHV %d)", late, len(p.vals))
	}
	onClone("late field", func(x *Packet) { x.SetFieldByID(late, 7) })
	onOrig("late field", func(x *Packet) { x.SetFieldByID(late, 9) })
	if p.FieldByID(late) != 9 || q.FieldByID(late) != 7 {
		t.Fatalf("late field = %d / %d, want 9 / 7", p.FieldByID(late), q.FieldByID(late))
	}
	beyond := FieldID(64 + 5) // past the inline PHV and its one-word bitset
	onOrig("field past the inline PHV", func(x *Packet) { x.SetFieldByID(beyond, 1) })
	onClone("field past the inline PHV", func(x *Packet) { x.SetFieldByID(beyond, 2) })
	if v, ok := p.FieldOKByID(beyond); !ok || v != 1 {
		t.Fatalf("original field %d = %d/%v, want 1/true", beyond, v, ok)
	}

	// A clone of a packet that has outgrown its inline storage owns what
	// it points at, too.
	r := p.Clone()
	rWas := r.String()
	if rWas != pWas {
		t.Fatalf("clone of the grown packet differs:\n%s\n%s", rWas, pWas)
	}
	step("clearing a header on the grown original", p, r, &rWas, func(x *Packet) { x.RemoveHeader("eth") })
}

// TestNewPastInlineBitset: with more fields interned than the inline PHV
// and its bitset hold, New falls back to a heap PHV and bitset, and the
// packet behaves the same.
func TestNewPastInlineBitset(t *testing.T) {
	n := 64 + 1
	p := (*Pool)(nil).sized(1, n)
	if len(p.present) != 2 || len(p.vals) != n || &p.vals[0] == &p.valsBuf[0] {
		t.Fatalf("present/vals = %d/%d words (inline %v), want 2/%d on the heap", len(p.present), len(p.vals), &p.vals[0] == &p.valsBuf[0], n)
	}
	last := FieldID(n - 1)
	p.SetFieldByID(last, 5)
	q := p.Clone()
	q.SetFieldByID(last, 6)
	q.SetFieldByID(0, 1)
	if v, ok := p.FieldOKByID(last); !ok || v != 5 || p.NumFields() != 1 {
		t.Fatalf("original = %d/%v with %d fields, want 5/true with 1", v, ok, p.NumFields())
	}
	if q.FieldByID(last) != 6 || q.NumFields() != 2 {
		t.Fatalf("clone = %d with %d fields, want 6 with 2", q.FieldByID(last), q.NumFields())
	}
}

func TestRemoveHeader(t *testing.T) {
	p := TCPPacket(1, 1, 2, 3, 4, 0, 0)
	p.RemoveHeader("tcp")
	if p.Has("tcp") {
		t.Fatal("tcp still present")
	}
	if _, ok := p.FieldOK("tcp.sport"); ok {
		t.Fatal("tcp fields not removed")
	}
	if !p.Has("ipv4") {
		t.Fatal("ipv4 removed unexpectedly")
	}
}

func TestFlowKey(t *testing.T) {
	p := TCPPacket(1, IP(10, 0, 0, 1), IP(10, 0, 0, 2), 1000, 80, 0, 0)
	k := p.FlowKey()
	if k.SrcPort != 1000 || k.DstPort != 80 || k.Proto != 6 {
		t.Fatalf("flow key = %+v", k)
	}
	r := TCPPacket(2, IP(10, 0, 0, 2), IP(10, 0, 0, 1), 80, 1000, 0, 0).FlowKey()
	if k.Hash() == r.Hash() {
		t.Fatal("hash collision between directions (suspicious)")
	}
}

func TestFlowKeyHashDeterministic(t *testing.T) {
	f := func(a, b uint32, c, d uint16, e uint8) bool {
		k := FlowKey{SrcIP: a, DstIP: b, SrcPort: c, DstPort: d, Proto: e}
		return k.Hash() == k.Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPacketLen(t *testing.T) {
	p := TCPPacket(1, 1, 2, 3, 4, 0, 1000)
	if p.Len() != 14+20+20+1000 {
		t.Fatalf("len = %d", p.Len())
	}
}

func TestVerdictString(t *testing.T) {
	for v, want := range map[Verdict]string{
		VerdictContinue: "continue", VerdictForward: "forward", VerdictDrop: "drop",
		VerdictToController: "to-controller", VerdictRecirculate: "recirculate", Verdict(99): "verdict(99)",
	} {
		if v.String() != want {
			t.Errorf("Verdict(%d).String() = %q, want %q", v, v.String(), want)
		}
	}
}

// TestBuildersUnchanged: TCPPacket and UDPPacket set their fields by
// pre-interned ID and size the header chain up front; the packets must
// be what the name-by-name construction they replaced produced, on
// every interned field, presence bit, header order and Len(), and cost
// one allocation: the struct, which holds the header chain, the PHV and
// its presence bitset inline, in the allocator's 640-byte size class.
func TestBuildersUnchanged(t *testing.T) {
	byName := func(id uint64, src, dst uint32, proto uint64, l4 string, payload int, l4fields map[string]uint64) *Packet {
		p := New(id)
		p.AddHeader("eth")
		p.SetField("eth.type", EtherTypeIPv4)
		p.AddHeader("ipv4")
		p.SetField("ipv4.version", 4)
		p.SetField("ipv4.ihl", 5)
		p.SetField("ipv4.ttl", 64)
		p.SetField("ipv4.proto", proto)
		p.SetField("ipv4.src", uint64(src))
		p.SetField("ipv4.dst", uint64(dst))
		p.AddHeader(l4)
		for name, v := range l4fields {
			p.SetField(name, v)
		}
		p.PayloadLen = payload
		return p
	}
	same := func(got, want *Packet) {
		t.Helper()
		if got.ID != want.ID || got.PayloadLen != want.PayloadLen || got.Len() != want.Len() {
			t.Fatalf("id/payload/len = %d/%d/%d, want %d/%d/%d", got.ID, got.PayloadLen, got.Len(), want.ID, want.PayloadLen, want.Len())
		}
		if !reflect.DeepEqual(got.Headers, want.Headers) {
			t.Fatalf("headers = %v, want %v", got.Headers, want.Headers)
		}
		for id := 0; id < NumFieldIDs(); id++ {
			gv, gok := got.FieldOKByID(FieldID(id))
			wv, wok := want.FieldOKByID(FieldID(id))
			if gv != wv || gok != wok {
				t.Fatalf("field %s = %d/%v, want %d/%v", FieldIDName(FieldID(id)), gv, gok, wv, wok)
			}
		}
	}
	src, dst := IP(10, 0, 0, 1), IP(10, 0, 0, 2)
	same(TCPPacket(7, src, dst, 1234, 80, TCPSyn|TCPAck, 100),
		byName(7, src, dst, ProtoTCP, "tcp", 100, map[string]uint64{
			"tcp.sport": 1234, "tcp.dport": 80, "tcp.flags": TCPSyn | TCPAck, "tcp.off": 5}))
	same(TCPPacket(8, src, dst, 1, 2, 0, 0),
		byName(8, src, dst, ProtoTCP, "tcp", 0, map[string]uint64{
			"tcp.sport": 1, "tcp.dport": 2, "tcp.flags": 0, "tcp.off": 5}))
	same(UDPPacket(9, src, dst, 5353, 53, 400),
		byName(9, src, dst, ProtoUDP, "udp", 400, map[string]uint64{
			"udp.sport": 5353, "udp.dport": 53, "udp.len": 408}))

	if n := testing.AllocsPerRun(100, func() { TCPPacket(1, src, dst, 1, 2, 0, 64) }); n > 1 {
		t.Fatalf("TCPPacket: %v allocations, want at most 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { UDPPacket(1, src, dst, 1, 2, 64) }); n > 1 {
		t.Fatalf("UDPPacket: %v allocations, want at most 1", n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const n = 1000
	for i := 0; i < n; i++ {
		builtSink = UDPPacket(1, src, dst, 1, 2, 64)
	}
	runtime.ReadMemStats(&after)
	if bytes := (after.TotalAlloc - before.TotalAlloc) / n; bytes > 640 {
		t.Fatalf("a packet takes %d bytes from the allocator, past the 640-byte size class", bytes)
	}
}

// TestPoolRecycles: a released packet reads as an empty packet to
// whoever still holds it, the pool's next packet reuses it with a PHV
// sized to the intern table, and releasing a packet twice panics.
func TestPoolRecycles(t *testing.T) {
	var pool Pool
	p := pool.TCPPacket(7, 1, 2, 3, 4, TCPSyn, 100)
	p.Trace = []string{"s1"}
	pool.Release(p)
	if p.ID != 0 || p.NumFields() != 0 || p.Headers.Len() != 0 || p.Len() != 0 || p.Trace != nil {
		t.Fatalf("a released packet reads %v (len %d, trace %v), want empty", p, p.Len(), p.Trace)
	}
	if pool.Live() != 0 || pool.Free() != 1 || pool.Peak() != 1 {
		t.Fatalf("pool: %d live, %d free, peak %d; want 0, 1, 1", pool.Live(), pool.Free(), pool.Peak())
	}
	q := pool.UDPPacket(8, 1, 2, 3, 4, 10)
	if q != p || len(q.vals) != NumFieldIDs() || &q.vals[0] != &q.valsBuf[0] {
		t.Fatalf("the pool's next packet is not the released one with an inline PHV of %d fields", NumFieldIDs())
	}
	if want := UDPPacket(8, 1, 2, 3, 4, 10); q.String() != want.String() || q.Len() != want.Len() {
		t.Fatalf("recycled packet = %v, want %v", q, want)
	}
	if n := testing.AllocsPerRun(100, func() { pool.Release(pool.UDPPacket(1, 1, 2, 3, 4, 64)) }); n != 0 {
		t.Fatalf("take and release: %v allocations, want 0", n)
	}
	pool.Release(q)
	defer func() {
		if recover() == nil {
			t.Fatal("releasing a packet twice did not panic")
		}
	}()
	pool.Release(q)
}
