// Package apps is FlexNet's network-function library: the dynamic apps,
// security defenses, and tenant extensions from the paper's use cases
// (§1.1), all written in FlexBPF against the fungible-datapath
// abstraction so the compiler can place them on any capable device and
// the runtime can inject, migrate, scale, and retire them live.
//
// DESIGN.md §2 (S13) inventories the library; the apps double as workloads throughout the §3 experiments.
package apps

import (
	"fmt"

	"flexnet/internal/flexbpf"
	"flexnet/internal/packet"
)

// Registers used conventionally across app programs.
const (
	r0 = flexbpf.Reg(0)
	r1 = flexbpf.Reg(1)
	r2 = flexbpf.Reg(2)
	r3 = flexbpf.Reg(3)
	r4 = flexbpf.Reg(4)
	r5 = flexbpf.Reg(5)
)

// symFlowHash emits code computing a direction-insensitive TCP flow hash
// into rd: Hash(src)^Hash(dst)^Hash(sport)^Hash(dport). The value is
// identical for both directions of a connection, which lets a stateful
// firewall match return traffic against state created by outbound
// traffic. Clobbers rd and tmp.
func symFlowHash(a *flexbpf.Asm, rd, tmp flexbpf.Reg) *flexbpf.Asm {
	return a.
		LdField(rd, "ipv4.src").
		Hash(rd, rd).
		LdField(tmp, "ipv4.dst").
		Hash(tmp, tmp).
		Xor(rd, tmp).
		LdField(tmp, "tcp.sport").
		Hash(tmp, tmp).
		Xor(rd, tmp).
		LdField(tmp, "tcp.dport").
		Hash(tmp, tmp).
		Xor(rd, tmp)
}

// Firewall builds a stateful firewall program:
//
//   - an ACL table (ternary src/dst, port range) with allow/deny;
//   - a connection table: packets arriving on the trusted port create
//     connection state; packets from the untrusted side are admitted
//     only when matching an established connection.
//
// The device must expose the packet's ingress port as "meta.ingress".
func Firewall(name string, aclSize, connSize int, trustedPort uint64) *flexbpf.Program {
	deny := flexbpf.NewAsm().Drop().MustBuild()
	allow := flexbpf.NewAsm().Ret().MustBuild()
	remember := symFlowHash(flexbpf.NewAsm(), r0, r1).
		MovImm(r1, 1).
		MapStore(name+"_conns", r0, r1).
		Ret().
		MustBuild()
	admit := symFlowHash(flexbpf.NewAsm(), r0, r1).
		MapHas(r2, name+"_conns", r0).
		JEqImm(r2, 0, "drop").
		Ret().
		Label("drop").
		Drop().
		MustBuild()
	return flexbpf.NewProgram(name).
		Headers("eth", "ipv4", "tcp").
		Requires(flexbpf.Capabilities{TCAM: true, PerFlowState: true}).
		LRUMap(name+"_conns", connSize, 1).SharedMap().
		Action(name+"_deny", 0, deny).
		Action(name+"_allow", 0, allow).
		Table(&flexbpf.TableSpec{
			Name: name + "_acl",
			Keys: []flexbpf.TableKey{
				{Field: "ipv4.src", Kind: flexbpf.MatchTernary, Bits: 32},
				{Field: "ipv4.dst", Kind: flexbpf.MatchTernary, Bits: 32},
				{Field: "tcp.dport", Kind: flexbpf.MatchRange, Bits: 16},
			},
			Actions:       []string{name + "_deny", name + "_allow"},
			DefaultAction: name + "_allow",
			Size:          aclSize,
		}).
		Apply(name+"_acl").
		If(flexbpf.Cond{Field: "meta.ingress", Op: flexbpf.CmpEq, Value: trustedPort},
			[]flexbpf.Stmt{flexbpf.SDo(remember)},
			[]flexbpf.Stmt{flexbpf.SDo(admit)}).
		MustBuild()
}

// HeavyHitter builds a count-min-sketch heavy-hitter monitor: per-packet
// sketch updates across `rows` array maps, punting flows whose estimate
// crosses threshold to the controller (at most once per flow via a seen
// filter). This is the canonical per-packet-mutating stateful app of
// §3.4's migration discussion.
func HeavyHitter(name string, rows, cols int, threshold uint64) *flexbpf.Program {
	if rows < 1 || rows > 4 {
		panic("apps: heavy hitter supports 1..4 rows")
	}
	b := flexbpf.NewProgram(name).
		Headers("eth", "ipv4").
		Requires(flexbpf.Capabilities{PerFlowState: true})
	for r := 0; r < rows; r++ {
		b.ArrayMap(fmt.Sprintf("%s_row%d", name, r), cols, 32)
		b.SharedMap()
	}
	b.HashMap(name+"_seen", 4096, 1).SharedMap()

	// Update all rows; r5 accumulates the min estimate.
	a := flexbpf.NewAsm().
		FlowHash(r0).
		MovImm(r5, ^uint64(0))
	for r := 0; r < rows; r++ {
		row := fmt.Sprintf("%s_row%d", name, r)
		a.Mov(r1, r0).
			XorImm(r1, uint64(r+1)*0x9E3779B97F4A7C15).
			Hash(r1, r1).
			MovImm(r2, uint64(cols)).
			Mod(r1, r2).
			MapLoad(r3, row, r1).
			AddImm(r3, 1).
			MapStore(row, r1, r3).
			Min(r5, r3)
	}
	a.JLtImm(r5, threshold, "done").
		MapHas(r1, name+"_seen", r0).
		JEqImm(r1, 1, "done").
		MovImm(r1, 1).
		MapStore(name+"_seen", r0, r1).
		Punt().
		Label("done").
		Ret()
	return b.Do(a.MustBuild()).MustBuild()
}

// SYNDefense builds the elastic DDoS defense of §1.1 "Real-time
// security": it tracks per-source SYN counts in an LRU map and drops
// SYNs from sources above the threshold. Capacity (map size) is the
// scaling knob: the controller installs larger/smaller variants as
// attack volume changes.
func SYNDefense(name string, sources int, threshold uint64) *flexbpf.Program {
	body := flexbpf.NewAsm().
		MovImm(r3, 0).
		MovImm(r4, 1).
		LdField(r0, "tcp.flags").
		AndImm(r0, packet.TCPSyn).
		JEqImm(r0, 0, "pass").
		LdField(r1, "ipv4.src").
		MapLoad(r2, name+"_syn", r1).
		AddImm(r2, 1).
		MapStore(name+"_syn", r1, r2).
		JLeImm(r2, threshold, "pass").
		Count(name+"_dropped", r3, r4).
		Drop().
		Label("pass").
		Ret().
		MustBuild()
	return flexbpf.NewProgram(name).
		Headers("eth", "ipv4", "tcp").
		Requires(flexbpf.Capabilities{PerFlowState: true}).
		LRUMap(name+"_syn", sources, 32).SharedMap().
		Counter(name+"_dropped", 1).
		If(flexbpf.Cond{Field: "ipv4.proto", Op: flexbpf.CmpEq, Value: packet.ProtoTCP},
			[]flexbpf.Stmt{flexbpf.SDo(body)},
			nil).
		MustBuild()
}

// RateLimiter builds a meter-based per-class rate limiter: the class
// table maps traffic to a meter index via action data; red packets are
// dropped. Unclassified traffic is not policed.
func RateLimiter(name string, classes int, cir, pir uint64) *flexbpf.Program {
	classify := flexbpf.NewAsm().
		LdParam(r0, 0). // meter index
		AddImm(r0, 1).  // class 0 means "unclassified"; stored +1
		StField("meta.rlclass", r0).
		Ret().
		MustBuild()
	police := flexbpf.NewAsm().
		LdField(r0, "meta.rlclass").
		SubImm(r0, 1).
		PktLen(r1).
		MeterExec(r2, name+"_meter", r0, r1).
		JLtImm(r2, 2, "pass"). // green/yellow pass
		Drop().
		Label("pass").
		Ret().
		MustBuild()
	return flexbpf.NewProgram(name).
		Headers("eth", "ipv4").
		Meter(name+"_meter", classes, cir, pir, maxU64(cir/4, 1500), maxU64(pir/4, 3000)).
		Action(name+"_setclass", 1, classify).
		Table(&flexbpf.TableSpec{
			Name: name + "_classes",
			Keys: []flexbpf.TableKey{
				{Field: "ipv4.src", Kind: flexbpf.MatchTernary, Bits: 32},
			},
			Actions: []string{name + "_setclass"},
			Size:    classes,
		}).
		Apply(name+"_classes").
		If(flexbpf.Cond{Field: "meta.rlclass", Op: flexbpf.CmpGe, Value: 1},
			[]flexbpf.Stmt{flexbpf.SDo(police)},
			nil).
		MustBuild()
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// INTTelemetry builds an in-band telemetry program: it stamps an INT
// record with device id, hop count, and a timestamp (simplified
// one-record INT).
func INTTelemetry(name string, deviceID uint64) *flexbpf.Program {
	body := flexbpf.NewAsm().
		HasField(r0, "int.hopcount").
		JEqImm(r0, 1, "bump").
		AddHdr("int").
		MovImm(r1, 0).
		StField("int.hopcount", r1).
		Label("bump").
		LdField(r1, "int.hopcount").
		AddImm(r1, 1).
		StField("int.hopcount", r1).
		MovImm(r2, deviceID).
		StField("int.device", r2).
		Now(r3).
		StField("int.latency", r3).
		Ret().
		MustBuild()
	return flexbpf.NewProgram(name).
		Headers("eth", "ipv4", "int").
		Do(body).
		MustBuild()
}

// L2Forwarder builds a static L2 forwarding program (dst MAC → port).
// Unknown destinations punt to the controller for learning.
func L2Forwarder(name string, tableSize int) *flexbpf.Program {
	fwd := flexbpf.NewAsm().LdParam(r0, 0).Forward(r0).MustBuild()
	miss := flexbpf.NewAsm().Punt().MustBuild()
	return flexbpf.NewProgram(name).
		Headers("eth").
		Action(name+"_fwd", 1, fwd).
		Action(name+"_miss", 0, miss).
		Table(&flexbpf.TableSpec{
			Name:          name + "_fdb",
			Keys:          []flexbpf.TableKey{{Field: "eth.dst", Kind: flexbpf.MatchExact, Bits: 48}},
			Actions:       []string{name + "_fwd"},
			DefaultAction: name + "_miss",
			Size:          tableSize,
		}).
		Apply(name + "_fdb").
		MustBuild()
}
