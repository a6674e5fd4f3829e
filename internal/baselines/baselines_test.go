package baselines

import (
	"strings"
	"testing"
	"time"

	"flexnet/internal/apps"
	"flexnet/internal/dataplane"
	"flexnet/internal/fabric"
	"flexnet/internal/flexbpf"
	"flexnet/internal/netsim"
	"flexnet/internal/packet"
	"flexnet/internal/runtime"
)

func candidateSet() []*flexbpf.Program {
	return []*flexbpf.Program{
		apps.SYNDefense("sd", 128, 3),
		apps.HeavyHitter("hh", 2, 128, 1000),
		apps.RateLimiter("rl", 4, 1_000_000, 2_000_000),
	}
}

func TestMantisActivation(t *testing.T) {
	sim := netsim.New(1)
	dev := dataplane.MustNew(dataplane.DefaultConfig("sw", dataplane.ArchDRMT))
	dev.SetClock(func() uint64 { return uint64(sim.Now()) })
	m, err := NewMantis(dev, candidateSet())
	if err != nil {
		t.Fatal(err)
	}
	// All three candidates consume resources even though none is active.
	if got := len(dev.Programs()); got != 4 { // mux + 3
		t.Fatalf("programs = %v", dev.Programs())
	}
	syn := packet.TCPPacket(1, packet.IP(6, 6, 6, 6), packet.IP(10, 0, 0, 1), 1, 80, packet.TCPSyn, 0)

	// Nothing active: SYNs pass.
	for i := 0; i < 10; i++ {
		if st := dev.Process(syn.Clone()); st.Verdict == packet.VerdictDrop {
			t.Fatal("inactive candidate fired")
		}
	}

	// Activate the SYN defense: sub-millisecond, then SYNs are limited.
	var actErr error
	acted := netsim.Time(0)
	m.Activate(sim, "sd", func(e error) { actErr = e; acted = sim.Now() })
	sim.Run()
	if actErr != nil {
		t.Fatal(actErr)
	}
	if acted > time.Millisecond {
		t.Fatalf("activation took %v", acted)
	}
	if m.Active() != "sd" {
		t.Fatalf("active = %q", m.Active())
	}
	drops := 0
	for i := 0; i < 10; i++ {
		if st := dev.Process(syn.Clone()); st.Verdict == packet.VerdictDrop {
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("activated defense never fired")
	}

	// Unanticipated program: impossible.
	var unErr error
	m.Activate(sim, "brand-new-defense", func(e error) { unErr = e })
	sim.Run()
	if unErr == nil || !strings.Contains(unErr.Error(), "not anticipated") {
		t.Fatalf("unanticipated program activated: %v", unErr)
	}

	// Deactivate.
	m.Activate(sim, "", func(e error) { actErr = e })
	sim.Run()
	if actErr != nil || m.Active() != "" {
		t.Fatalf("deactivation failed: %v active=%q", actErr, m.Active())
	}
}

func TestMantisResourceOverhead(t *testing.T) {
	// Mantis pays for all candidates; FlexNet pays for one.
	devM := dataplane.MustNew(dataplane.DefaultConfig("m", dataplane.ArchDRMT))
	if _, err := NewMantis(devM, candidateSet()); err != nil {
		t.Fatal(err)
	}
	devF := dataplane.MustNew(dataplane.DefaultConfig("f", dataplane.ArchDRMT))
	if err := devF.InstallProgram(apps.SYNDefense("sd", 128, 3)); err != nil {
		t.Fatal(err)
	}
	mBits := devM.InstalledDemand()
	fBits := devF.InstalledDemand()
	if mBits.SRAMBits <= 2*fBits.SRAMBits {
		t.Fatalf("mantis SRAM %d not ≫ single-app %d", mBits.SRAMBits, fBits.SRAMBits)
	}
}

func TestHyper4LoadAndOverhead(t *testing.T) {
	sim := netsim.New(1)
	dev := dataplane.MustNew(dataplane.DefaultConfig("sw", dataplane.ArchDRMT))
	dev.SetClock(func() uint64 { return uint64(sim.Now()) })
	h := NewHyper4(dev, 4)

	var err error
	loadedAt := netsim.Time(0)
	h.Load(sim, apps.SYNDefense("sd", 128, 3), func(e error) { err = e; loadedAt = sim.Now() })
	sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if loadedAt == 0 {
		t.Fatal("load never completed")
	}
	if dev.Instance("hyper4.sd") == nil {
		t.Fatal("emulated program missing")
	}

	// Emulated processing pays the factor.
	native := dataplane.MustNew(dataplane.DefaultConfig("n", dataplane.ArchDRMT))
	if err := native.InstallProgram(apps.SYNDefense("sd", 128, 3)); err != nil {
		t.Fatal(err)
	}
	syn := packet.TCPPacket(1, packet.IP(6, 6, 6, 6), packet.IP(10, 0, 0, 1), 1, 80, packet.TCPSyn, 0)
	stE := h.Process(syn.Clone())
	stN := native.Process(syn.Clone())
	if stE.LatencyNs <= stN.LatencyNs {
		t.Fatalf("emulation latency %d not above native %d", stE.LatencyNs, stN.LatencyNs)
	}
	if stE.Lookups <= stN.Lookups {
		t.Fatalf("emulation lookups %d not above native %d", stE.Lookups, stN.Lookups)
	}

	// Resource inflation.
	if dev.InstalledDemand().SRAMBits <= native.InstalledDemand().SRAMBits {
		t.Fatal("emulation does not inflate resources")
	}
}

func TestCompileTimeChangeDropsTraffic(t *testing.T) {
	// The baseline: drain → reflash → redeploy loses every packet that
	// arrives during the outage window.
	f := fabric.New(1)
	f.AddSwitch("sw1", dataplane.ArchDRMT)
	h1 := f.AddHost("h1", packet.IP(10, 0, 0, 1))
	f.AddHost("h2", packet.IP(10, 0, 0, 2))
	f.Connect("h1", "sw1", netsim.DefaultLink())
	f.Connect("sw1", "h2", netsim.DefaultLink())
	if err := f.InstallBaseRouting(); err != nil {
		t.Fatal(err)
	}
	src := h1.NewSource(netsim.FlowSpec{
		Dst: packet.IP(10, 0, 0, 2), Proto: packet.ProtoUDP,
		SrcPort: 1000, DstPort: 2000, PacketLen: 500,
	})
	src.StartCBR(10000)
	costs := runtime.DefaultCosts()
	dev := f.Device("sw1")

	var latency netsim.Time
	redeployed := false
	var err error
	f.Sim.At(50*time.Millisecond, func() {
		start := f.Sim.Now()
		StaticRecompile(f.Sim, dev, costs, apps.SYNDefense("sd", 128, 3), func(e error) {
			latency, redeployed, err = f.Sim.Now()-start, true, e
		})
		if !dev.Draining() {
			t.Error("baseline did not drain")
		}
	})
	f.Sim.RunUntil(11 * time.Second)
	src.Stop()
	f.Sim.RunFor(10 * time.Millisecond)

	if !redeployed || err != nil {
		t.Fatalf("baseline change did not redeploy: %v", err)
	}
	if dev.Draining() || dev.Instance("sd") == nil {
		t.Fatal("device not redeployed with the new program")
	}
	outage := costs.DrainLead + costs.Reflash
	if latency < outage {
		t.Fatalf("baseline latency %v < outage %v", latency, outage)
	}
	drops := dev.Stats().DrainDrops
	if drops == 0 {
		t.Fatal("baseline lost no packets — drain not modelled")
	}
	// Expected drops ≈ rate × outage.
	expected := uint64(10000 * outage.Seconds())
	if drops < expected*8/10 || drops > expected*12/10 {
		t.Fatalf("drain drops = %d, expected ≈ %d", drops, expected)
	}
}
