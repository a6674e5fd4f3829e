package flexbpf

import (
	"sync"
	"testing"

	"flexnet/internal/packet"
)

// benchMap is a fixed-array map backend so the benchmarks measure
// interpreter and addressing overhead, not map implementation overhead.
type benchMap struct {
	vals    [4096]uint64
	present [4096]bool
}

func (m *benchMap) load(k uint64) (uint64, bool) {
	i := k & 4095
	return m.vals[i], m.present[i]
}
func (m *benchMap) store(k, v uint64) {
	i := k & 4095
	m.vals[i], m.present[i] = v, true
}
func (m *benchMap) del(k uint64) {
	i := k & 4095
	m.vals[i], m.present[i] = 0, false
}

// benchEnv implements both Env and LinkedEnv over the same storage, with
// the same addressing asymmetry the production dataplane has: the
// name-based methods (what the pre-link tree interpreter uses) resolve
// through a mutex-guarded map[string] with an interface type assertion,
// exactly like state.Store.Get does per operation, while the slot-based
// methods (what the linked engine uses) index a slice of pointers
// resolved once at install time, like ProgramInstance's lmaps.
type benchEnv struct {
	mu     sync.Mutex
	byName map[string]any
	slots  []*benchMap
	tables map[string]*TableInstance
}

func newBenchEnv(lp *LinkedProgram, tables map[string]*TableInstance) *benchEnv {
	e := &benchEnv{byName: map[string]any{}, tables: tables}
	for _, name := range lp.MapSlots() {
		m := &benchMap{}
		e.byName[name] = m
		e.slots = append(e.slots, m)
	}
	return e
}

// object mirrors state.Store.Get: lock, name lookup, type assertion.
func (e *benchEnv) object(name string) *benchMap {
	e.mu.Lock()
	defer e.mu.Unlock()
	m, _ := e.byName[name].(*benchMap)
	return m
}

func (e *benchEnv) MapLoad(name string, k uint64) (uint64, bool) { return e.object(name).load(k) }
func (e *benchEnv) MapStore(name string, k, v uint64) error {
	e.object(name).store(k, v)
	return nil
}
func (e *benchEnv) MapDelete(name string, k uint64)         { e.object(name).del(k) }
func (e *benchEnv) CounterAdd(string, uint64, uint64)       {}
func (e *benchEnv) MeterExec(string, uint64, uint64) uint64 { return 0 }
func (e *benchEnv) TableLookup(t string, keys []uint64) (string, []uint64, bool) {
	return e.tables[t].Lookup(keys)
}
func (e *benchEnv) Now() uint64  { return 0 }
func (e *benchEnv) Rand() uint64 { return 0 }

func (e *benchEnv) MapLoadSlot(s int, k uint64) (uint64, bool) { return e.slots[s].load(k) }
func (e *benchEnv) MapStoreSlot(s int, k, v uint64) error {
	e.slots[s].store(k, v)
	return nil
}
func (e *benchEnv) MapDeleteSlot(s int, k uint64)            { e.slots[s].del(k) }
func (e *benchEnv) CounterAddSlot(int, uint64, uint64)       {}
func (e *benchEnv) MeterExecSlot(int, uint64, uint64) uint64 { return 0 }

// benchPipelineProgram is a representative multi-app pipeline — the
// workload install-time linking targets: several independently written
// stages composed into one program, shaped like the catalog apps
// (SYNDefense's SYN accounting, RateLimiter's token stamp,
// INTTelemetry's per-hop stamps). It classifies the 5-tuple, maintains
// flow packet and byte counters, stamps telemetry and rate-limit
// metadata, counts SYNs and rewrites TTL/DSCP for TCP traffic, and
// applies an ACL. Heavy on field and state access, where the pre-link
// interpreter pays a string hash per reference.
func benchPipelineProgram(t testing.TB) *Program {
	classify := NewAsm().
		LdField(0, "ipv4.src").
		LdField(1, "ipv4.dst").
		LdField(2, "ipv4.proto").
		LdField(3, "tcp.sport").
		LdField(4, "tcp.dport").
		Xor(0, 1).
		ShlImm(2, 16).
		Xor(0, 2).
		Xor(3, 4).
		Xor(0, 3).
		Hash(5, 0).
		StField("meta.flowhash", 5).
		MapLoad(6, "flows", 5).
		AddImm(6, 1).
		MapStore("flows", 5, 6).
		MovImm(7, 1).
		StField("meta.class", 7).
		MustBuild()
	telemetry := NewAsm().
		Now(0).
		StField("meta.ingress_ts", 0).
		PktLen(1).
		LdField(2, "meta.flowhash").
		MapLoad(3, "bytes", 2).
		Add(3, 1).
		MapStore("bytes", 2, 3).
		LdField(4, "meta.class").
		StField("meta.qos", 4).
		MustBuild()
	ratelimit := NewAsm().
		LdField(0, "meta.flowhash").
		MapLoad(1, "tokens", 0).
		AddImm(1, 1).
		MapStore("tokens", 0, 1).
		MovImm(2, 0).
		JLtImm(1, 100, "under").
		MovImm(2, 1).
		Label("under").
		StField("meta.rlclass", 2).
		MustBuild()
	synguard := NewAsm().
		LdField(0, "tcp.flags").
		AndImm(0, packet.TCPSyn).
		JEqImm(0, 0, "done").
		LdField(1, "ipv4.dst").
		MapLoad(2, "syncnt", 1).
		AddImm(2, 1).
		MapStore("syncnt", 1, 2).
		Label("done").
		MustBuild()
	rewrite := NewAsm().
		LdField(0, "ipv4.ttl").
		SubImm(0, 1).
		StField("ipv4.ttl", 0).
		LdField(1, "ipv4.dscp").
		emit(Instr{Op: OpOrImm, Rd: 1, Imm: 8}).
		StField("ipv4.dscp", 1).
		MustBuild()
	allow := NewAsm().LdParam(0, 0).Forward(0).MustBuild()
	deny := NewAsm().Drop().MustBuild()
	p, err := NewProgram("l3bench").
		HashMap("flows", 4096, 64).
		HashMap("bytes", 4096, 64).
		HashMap("tokens", 4096, 64).
		HashMap("syncnt", 4096, 64).
		Action("allow", 1, allow).
		Action("deny", 0, deny).
		Table(&TableSpec{
			Name: "acl",
			Keys: []TableKey{
				{Field: "ipv4.src", Kind: MatchTernary, Bits: 32},
				{Field: "tcp.dport", Kind: MatchExact, Bits: 16},
			},
			Actions:       []string{"allow", "deny"},
			DefaultAction: "deny",
			Size:          64,
		}).
		Do(classify).
		Do(telemetry).
		Do(ratelimit).
		If(Cond{Field: "ipv4.proto", Op: CmpEq, Value: packet.ProtoTCP},
			[]Stmt{SDo(synguard), SDo(rewrite), {Apply: "acl"}},
			nil).
		Build()
	if err != nil {
		t.Fatalf("build l3bench: %v", err)
	}
	return p
}

func benchSetup(b *testing.B) (*Program, *benchEnv, *LinkedProgram, []*packet.Packet) {
	b.Helper()
	prog := benchPipelineProgram(b)
	tables := map[string]*TableInstance{
		"acl": NewTableInstance(prog.Table("acl")),
	}
	err := tables["acl"].Insert(&TableEntry{
		Priority: 10,
		Match: []MatchValue{
			{Value: uint64(packet.IP(10, 0, 0, 0)), Mask: 0xFF000000},
			{Value: 80},
		},
		Action: "allow",
		Params: []uint64{3},
	})
	if err != nil {
		b.Fatal(err)
	}
	lp, err := Link(prog, func(name string) *TableInstance { return tables[name] })
	if err != nil {
		b.Fatal(err)
	}
	tables["acl"].SetActionResolver(lp.ActionIndex)
	env := newBenchEnv(lp, tables)
	pkts := make([]*packet.Packet, 64)
	for i := range pkts {
		src := packet.IP(10, byte(i), 2, byte(i*7))
		if i%4 == 3 {
			src = packet.IP(11, byte(i), 2, byte(i*7)) // default-action miss
		}
		var flags uint64
		if i%2 == 0 {
			flags = packet.TCPSyn // exercise the SYN-counting branch
		}
		pkts[i] = packet.TCPPacket(uint64(i), src, packet.IP(192, 168, 0, 1), uint16(1024+i), 80, flags, 64)
	}
	return prog, env, lp, pkts
}

// BenchmarkUnlinkedInterp is the pre-link tree interpreter on the
// representative pipeline: the "before" number for install-time linking.
func BenchmarkUnlinkedInterp(b *testing.B) {
	prog, env, _, pkts := benchSetup(b)
	var interp Interp
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := interp.Run(prog, pkts[i&63], env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLinkedInterp is the same program after install-time linking:
// field IDs, slot-addressed state, direct table pointers, flat code.
// The acceptance bar is 0 allocs/op and >=3x over BenchmarkUnlinkedInterp.
func BenchmarkLinkedInterp(b *testing.B) {
	_, env, lp, pkts := benchSetup(b)
	ctx := NewExecContext()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lp.Run(pkts[i&63], env, ctx); err != nil {
			b.Fatal(err)
		}
	}
}
