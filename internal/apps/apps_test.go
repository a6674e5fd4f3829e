package apps

import (
	"strings"
	"testing"

	"flexnet/internal/dataplane"
	"flexnet/internal/flexbpf"
	"flexnet/internal/packet"
)

func dev(t *testing.T, prog *flexbpf.Program) *dataplane.Device {
	t.Helper()
	d := dataplane.MustNew(dataplane.DefaultConfig("dev", dataplane.ArchSoC))
	if err := d.InstallProgram(prog); err != nil {
		t.Fatalf("install %s: %v", prog.Name, err)
	}
	return d
}

func tcp(id uint64, src, dst uint32, sport, dport uint16, flags uint64) *packet.Packet {
	return packet.TCPPacket(id, src, dst, sport, dport, flags, 100)
}

func TestAllAppsVerifyAndPlaceEverywhere(t *testing.T) {
	progs := []*flexbpf.Program{
		Firewall("fw", 64, 512, 0),
		HeavyHitter("hh", 3, 512, 100),
		SYNDefense("syn", 1024, 10),
		RateLimiter("rl", 8, 1_000_000, 2_000_000),
		INTTelemetry("int", 7),
		L2Forwarder("l2", 256),
	}
	// Every builtin kind at its default arguments rides along.
	for kind := range BuiltinKinds() {
		p, err := Builtin(kind, "builtin-"+kind, nil)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	// Verified ⇒ links: a device has no other way to run a program.
	for _, p := range progs {
		if err := flexbpf.Verify(p); err != nil {
			t.Errorf("%s does not verify: %v", p.Name, err)
			continue
		}
		tables := map[string]*flexbpf.TableInstance{}
		for _, spec := range p.Tables {
			tables[spec.Name] = flexbpf.NewTableInstance(spec)
		}
		if _, err := flexbpf.Link(p, func(n string) *flexbpf.TableInstance { return tables[n] }); err != nil {
			t.Errorf("%s verifies but does not link: %v", p.Name, err)
		}
	}
	// Every app should place on SoC and host (fully fungible, general).
	for _, arch := range []dataplane.Arch{dataplane.ArchSoC, dataplane.ArchHost} {
		d := dataplane.MustNew(dataplane.DefaultConfig("d", arch))
		for _, p := range progs {
			if err := d.InstallProgram(p.Clone()); err != nil {
				t.Errorf("%s rejected on %v: %v", p.Name, arch, err)
			}
		}
	}
}

// TestBuiltinArgs feeds Builtin the argument vectors a wire request can
// carry: each must build a program that verifies or be refused with an
// error naming the kind and the argument, never panic.
func TestBuiltinArgs(t *testing.T) {
	for _, c := range []struct {
		kind string
		args []uint64
		err  string // "" = builds
	}{
		{"heavy-hitter", []uint64{5}, "heavy-hitter: argument rows = 5"},
		{"heavy-hitter", []uint64{0}, "heavy-hitter: argument rows = 0"},
		{"heavy-hitter", []uint64{2, 0}, "heavy-hitter: argument cols = 0"},
		{"heavy-hitter", []uint64{4, 1}, ""},
		{"syn-defense", []uint64{0}, "syn-defense: argument sources = 0"},
		{"syn-defense", []uint64{1, 0}, ""},
		{"rate-limiter", []uint64{0}, "rate-limiter: argument classes = 0"},
		{"rate-limiter", []uint64{8, 3_000_000}, "rate-limiter: argument pir = 2000000 is below cir = 3000000"},
		{"rate-limiter", []uint64{8, 0, 0}, ""},
		{"firewall", []uint64{0}, "firewall: argument aclSize = 0"},
		{"firewall", []uint64{64, 0}, "firewall: argument connSize = 0"},
		{"firewall", []uint64{1, 1, 1 << 63}, ""},
		{"l2", []uint64{0}, "l2: argument tableSize = 0"},
		{"l2", []uint64{1 << 63}, "l2: argument tableSize = 9223372036854775808"},
		{"int", []uint64{0}, ""},
		{"int", []uint64{1, 2, 3}, "builtin app int: 3 arguments, takes 1 (deviceID)"},
		{"l2", []uint64{256, 1}, "builtin app l2: 2 arguments, takes 1 (tableSize)"},
	} {
		p, err := Builtin(c.kind, "b", c.args)
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%s %v: %v", c.kind, c.args, err)
		case c.err == "" && flexbpf.Verify(p) != nil:
			t.Errorf("%s %v does not verify: %v", c.kind, c.args, flexbpf.Verify(p))
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("%s %v: error %v, want %q", c.kind, c.args, err, c.err)
		}
	}
	// Every argument of every kind, at each end of its range and just
	// past it, with the others at their defaults.
	for kind, b := range builtins {
		for i, p := range b.params {
			at := func(v uint64) []uint64 {
				args := make([]uint64, len(b.params))
				for j, q := range b.params {
					args[j] = q.def
				}
				args[i] = v
				if kind == "rate-limiter" && i > 0 { // pir ≥ cir
					args[1], args[2] = v, v
				}
				return args
			}
			for _, v := range []uint64{p.min, p.def, p.max} {
				if prog, err := Builtin(kind, "b", at(v)); err != nil {
					t.Errorf("%s %s=%d: %v", kind, p.name, v, err)
				} else if err := flexbpf.Verify(prog); err != nil {
					t.Errorf("%s %s=%d does not verify: %v", kind, p.name, v, err)
				}
			}
			want := kind + ": argument " + p.name
			if p.min > 0 {
				if _, err := Builtin(kind, "b", at(p.min-1)); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s %s=%d: error %v, want %q", kind, p.name, p.min-1, err, want)
				}
			}
			if p.max < ^uint64(0) {
				if _, err := Builtin(kind, "b", at(p.max+1)); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s %s=%d: error %v, want %q", kind, p.name, p.max+1, err, want)
				}
			}
		}
	}
}

func TestFirewallStateful(t *testing.T) {
	// Trusted side is port 0; untrusted is port 1.
	d := dev(t, Firewall("fw", 16, 128, 0))
	inside, outside := packet.IP(10, 0, 0, 1), packet.IP(99, 9, 9, 9)

	// Unsolicited inbound: dropped.
	in := tcp(1, outside, inside, 80, 4242, 0)
	in.IngressPort = 1
	if st := d.Process(in); st.Verdict != packet.VerdictDrop {
		t.Fatalf("unsolicited inbound verdict = %v", st.Verdict)
	}

	// Outbound opens the connection.
	out := tcp(2, inside, outside, 4242, 80, packet.TCPSyn)
	out.IngressPort = 0
	if st := d.Process(out); st.Verdict == packet.VerdictDrop {
		t.Fatal("outbound dropped")
	}

	// Return traffic is now admitted.
	ret := tcp(3, outside, inside, 80, 4242, packet.TCPAck)
	ret.IngressPort = 1
	if st := d.Process(ret); st.Verdict == packet.VerdictDrop {
		t.Fatal("established return traffic dropped")
	}

	// A different inbound flow is still dropped.
	other := tcp(4, outside, inside, 81, 4242, 0)
	other.IngressPort = 1
	if st := d.Process(other); st.Verdict != packet.VerdictDrop {
		t.Fatal("unrelated inbound admitted")
	}
}

func TestFirewallACL(t *testing.T) {
	prog := Firewall("fw", 16, 128, 0)
	d := dev(t, prog)
	inst := d.Instance("fw")
	// Deny everything from 99.0.0.0/8 regardless of state.
	err := inst.Table("fw_acl").Insert(&flexbpf.TableEntry{
		Priority: 10,
		Match: []flexbpf.MatchValue{
			{Value: uint64(packet.IP(99, 0, 0, 0)), Mask: 0xFF000000},
			{Value: 0, Mask: 0},
			{Value: 0, Hi: 65535},
		},
		Action: "fw_deny",
	})
	if err != nil {
		t.Fatal(err)
	}
	p := tcp(1, packet.IP(99, 1, 2, 3), packet.IP(10, 0, 0, 1), 1, 2, 0)
	p.IngressPort = 0 // even trusted side
	if st := d.Process(p); st.Verdict != packet.VerdictDrop {
		t.Fatalf("ACL deny ignored: %v", st.Verdict)
	}
}

func TestHeavyHitterPunts(t *testing.T) {
	d := dev(t, HeavyHitter("hh", 3, 1024, 50))
	heavy := tcp(0, packet.IP(1, 1, 1, 1), packet.IP(2, 2, 2, 2), 1000, 80, 0)
	punts := 0
	for i := 0; i < 100; i++ {
		st := d.Process(heavy.Clone())
		if st.Verdict == packet.VerdictToController {
			punts++
		}
	}
	if punts != 1 {
		t.Fatalf("heavy flow punted %d times, want exactly 1", punts)
	}
	// Light flows never punt.
	for i := 0; i < 40; i++ {
		light := tcp(uint64(i), packet.IP(3, 3, byte(i), 1), packet.IP(2, 2, 2, 2), uint16(i), 80, 0)
		if st := d.Process(light); st.Verdict == packet.VerdictToController {
			t.Fatal("light flow punted")
		}
	}
	// Sketch estimate for the heavy flow is >= 100.
	est := estimateHH(t, d, "hh", 3, 1024, heavy)
	if est < 100 {
		t.Fatalf("sketch estimate = %d", est)
	}
}

// estimateHH reads the app's sketch rows the same way the program does.
func estimateHH(t *testing.T, d *dataplane.Device, name string, rows, cols int, p *packet.Packet) uint64 {
	t.Helper()
	inst := d.Instance(name)
	fh := p.FlowKey().Hash()
	min := ^uint64(0)
	for r := 0; r < rows; r++ {
		h := fh ^ uint64(r+1)*0x9E3779B97F4A7C15
		h = fnv64(h)
		idx := h % uint64(cols)
		row := inst.Store().Map(fmtRow(name, r))
		v, _ := row.Load(idx)
		if v < min {
			min = v
		}
	}
	return min
}

func fmtRow(name string, r int) string {
	return name + "_row" + string(rune('0'+r))
}

func fnv64(v uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime
		v >>= 8
	}
	return h
}

func TestSYNDefense(t *testing.T) {
	d := dev(t, SYNDefense("syn", 256, 5))
	attacker := packet.IP(66, 6, 6, 6)
	legit := packet.IP(10, 0, 0, 7)

	dropped := 0
	for i := 0; i < 20; i++ {
		p := tcp(uint64(i), attacker, packet.IP(10, 0, 0, 1), uint16(i), 80, packet.TCPSyn)
		if st := d.Process(p); st.Verdict == packet.VerdictDrop {
			dropped++
		}
	}
	if dropped != 15 { // first 5 pass, rest dropped
		t.Fatalf("attacker drops = %d, want 15", dropped)
	}
	// Non-SYN packets from the attacker still pass (it is a SYN filter).
	ack := tcp(100, attacker, packet.IP(10, 0, 0, 1), 1, 80, packet.TCPAck)
	if st := d.Process(ack); st.Verdict == packet.VerdictDrop {
		t.Fatal("non-SYN dropped")
	}
	// Legitimate low-rate source passes.
	for i := 0; i < 3; i++ {
		p := tcp(uint64(200+i), legit, packet.IP(10, 0, 0, 1), uint16(i), 80, packet.TCPSyn)
		if st := d.Process(p); st.Verdict == packet.VerdictDrop {
			t.Fatal("legit SYN dropped")
		}
	}
	// Drop counter matches.
	if got := d.Instance("syn").Store().Counter("syn_dropped").Value(0); got != 15 {
		t.Fatalf("drop counter = %d", got)
	}
}

func TestRateLimiter(t *testing.T) {
	d := dev(t, RateLimiter("rl", 4, 10_000, 20_000))
	inst := d.Instance("rl")
	// Classify 7.0.0.0/8 into meter class 0.
	err := inst.Table("rl_classes").Insert(&flexbpf.TableEntry{
		Match:  []flexbpf.MatchValue{{Value: uint64(packet.IP(7, 0, 0, 0)), Mask: 0xFF000000}},
		Action: "rl_setclass",
		Params: []uint64{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	src := packet.IP(7, 1, 1, 1)
	drops, passes := 0, 0
	for i := 0; i < 100; i++ {
		p := tcp(uint64(i), src, packet.IP(10, 0, 0, 1), 1, 80, 0)
		if st := d.Process(p); st.Verdict == packet.VerdictDrop {
			drops++
		} else {
			passes++
		}
	}
	if drops == 0 {
		t.Fatal("burst above rate never dropped")
	}
	if passes == 0 {
		t.Fatal("everything dropped")
	}
	// Unclassified traffic is never policed.
	for i := 0; i < 50; i++ {
		p := tcp(uint64(1000+i), packet.IP(9, 9, 9, 9), packet.IP(10, 0, 0, 1), 1, 80, 0)
		if st := d.Process(p); st.Verdict == packet.VerdictDrop {
			t.Fatal("unclassified traffic policed")
		}
	}
}

func TestINTTelemetry(t *testing.T) {
	d1 := dev(t, INTTelemetry("int", 11))
	d2 := dev(t, INTTelemetry("int", 22))
	p := tcp(1, 1, 2, 3, 4, 0)
	d1.Process(p)
	if !p.Has("int") || p.Field("int.hopcount") != 1 || p.Field("int.device") != 11 {
		t.Fatalf("after hop 1: %v", p)
	}
	d2.Process(p)
	if p.Field("int.hopcount") != 2 || p.Field("int.device") != 22 {
		t.Fatalf("after hop 2: %v", p)
	}
}

func TestL2Forwarder(t *testing.T) {
	d := dev(t, L2Forwarder("l2", 16))
	inst := d.Instance("l2")
	if err := inst.Table("l2_fdb").Insert(flexbpf.ExactEntry("l2_fwd", []uint64{9}, 0xAABBCCDDEEFF)); err != nil {
		t.Fatal(err)
	}
	p := packet.New(1)
	p.AddHeader("eth")
	p.SetField("eth.dst", 0xAABBCCDDEEFF)
	st := d.Process(p)
	if st.Verdict != packet.VerdictForward || p.EgressPort != 9 {
		t.Fatalf("known MAC: %v port %d", st.Verdict, p.EgressPort)
	}
	q := packet.New(2)
	q.AddHeader("eth")
	q.SetField("eth.dst", 0x111111111111)
	if st := d.Process(q); st.Verdict != packet.VerdictToController {
		t.Fatalf("unknown MAC verdict %v", st.Verdict)
	}
}

func TestAppsDemandReasonable(t *testing.T) {
	// Apps must fit a default DRMT switch individually and mostly
	// together — sanity for placement experiments.
	d := dataplane.MustNew(dataplane.DefaultConfig("sw", dataplane.ArchDRMT))
	progs := []*flexbpf.Program{
		Firewall("fw", 64, 512, 0),
		HeavyHitter("hh", 3, 512, 100),
		SYNDefense("syn", 1024, 10),
		RateLimiter("rl", 8, 1_000_000, 2_000_000),
	}
	for _, p := range progs {
		if err := d.InstallProgram(p); err != nil {
			t.Fatalf("%s does not fit alongside others: %v", p.Name, err)
		}
	}
}
