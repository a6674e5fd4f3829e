package experiments

import (
	"context"
	"fmt"
	"time"

	"flexnet/internal/apps"
	"flexnet/internal/controller"
	"flexnet/internal/dataplane"
	"flexnet/internal/fabric"
	"flexnet/internal/faults"
	"flexnet/internal/flexbpf"
	"flexnet/internal/netsim"
	"flexnet/internal/packet"
)

// E15FaultRecovery drives the general fault plane (internal/faults)
// against a fabric running committed apps, at increasing crash rates,
// with and without the controller's self-healing reconciliation loop.
// With healing on, every crash is reconciled — the restarted device
// gets its programs and routes back — and MTTR stays bounded by
// restart-time + scan period + plan execution, independent of the
// crash rate. With healing off, every crash permanently strands the
// device empty: committed intent drifts and stays drifted.
func E15FaultRecovery(seed int64) *Table {
	t := &Table{
		ID:      "E15",
		Title:   "Fault injection: recovery MTTR vs crash rate, with/without reconciliation",
		Claim:   "\"distributed controllers need consensus/fault tolerance\" (§3.4) — recovery must be automatic, not scripted",
		Columns: []string{"mean crash gap", "healing", "crashes", "reconciled", "MTTR mean", "MTTR max", "intent drift"},
	}
	const (
		horizon = 2 * time.Second
		settle  = 500 * time.Millisecond
		downFor = 10 * time.Millisecond
	)
	run := func(meanGap time.Duration, heal bool) (crashes uint64, reconciled int, mttrMean, mttrMax uint64, drift int) {
		f := fabric.New(seed)
		f.AddSwitch("s1", dataplane.ArchDRMT)
		f.AddSwitch("s2", dataplane.ArchDRMT)
		f.AddSwitch("s3", dataplane.ArchDRMT)
		f.AddHost("h1", packet.IP(10, 0, 0, 1))
		f.AddHost("h2", packet.IP(10, 0, 0, 2))
		f.Connect("h1", "s1", netsim.DefaultLink())
		f.Connect("s1", "s2", netsim.DefaultLink())
		f.Connect("s2", "h2", netsim.DefaultLink())
		f.Connect("s2", "s3", netsim.DefaultLink())
		if err := f.InstallBaseRouting(); err != nil {
			panic(err)
		}
		ctl := controller.New(f)

		// Each control-plane op takes tens of simulated milliseconds;
		// deploy waits for its callbacks so the fault schedule starts from
		// committed intent.
		deploy := func(uri, devA, devB string, prog *flexbpf.Program) {
			dp := &flexbpf.Datapath{Name: uri, Segments: []*flexbpf.Program{prog}}
			await(f, 100*time.Millisecond, func(done func(error)) {
				ctl.Deploy(context.Background(), uri, dp, controller.DeployOptions{Path: []string{devA}}, done)
			})
			if devB != "" {
				await(f, 100*time.Millisecond, func(done func(error)) {
					ctl.ScaleOut(context.Background(), uri, prog.Name, devB, done)
				})
			}
		}
		deploy("flexnet://chaos/syn", "s1", "s3", apps.SYNDefense("syn", 1024, 10))
		deploy("flexnet://chaos/hh", "s2", "", apps.HeavyHitter("hh", 2, 512, 1000))

		var healer *controller.Healer
		if heal {
			healer = ctl.StartHealer(time.Millisecond)
		}

		plane := faults.New(f, seed+77)
		sched := faults.Generate(seed+13, faults.GenSpec{
			Devices:        []string{"s1", "s2", "s3"},
			HorizonNs:      uint64(horizon),
			CrashMeanGapNs: uint64(meanGap),
			CrashDownNs:    uint64(downFor),
		})
		if err := plane.Apply(sched); err != nil {
			panic(err)
		}

		src := f.Host("h1").NewSource(netsim.FlowSpec{
			Dst: packet.IP(10, 0, 0, 2), Proto: packet.ProtoUDP,
			SrcPort: 1000, DstPort: 2000, PacketLen: 256,
		})
		src.StartCBR(20000)
		f.Sim.RunFor(horizon + settle)
		src.Stop()

		crashes = plane.Injected[faults.KindDeviceCrash]
		if healer != nil {
			reconciled = healer.Recovered()
			var sum, max uint64
			for _, m := range healer.MTTRs {
				sum += m
				if m > max {
					max = m
				}
			}
			if reconciled > 0 {
				mttrMean, mttrMax = sum/uint64(reconciled), max
			}
		}
		drift = len(ctl.IntentDrift())
		return crashes, reconciled, mttrMean, mttrMax, drift
	}

	gaps := []time.Duration{500 * time.Millisecond, 200 * time.Millisecond, 100 * time.Millisecond}
	onOff := []bool{true, false}
	var worstMTTR uint64
	var offDrift int
	for _, gap := range gaps {
		for _, heal := range onOff {
			crashes, reconciled, mean, max, drift := run(gap, heal)
			mode := "reconcile"
			if !heal {
				mode = "none"
			}
			mttrMean, mttrMax := "—", "—"
			if reconciled > 0 {
				mttrMean, mttrMax = ns(mean), ns(max)
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%v", gap), mode, d(crashes), di(reconciled), mttrMean, mttrMax, di(drift),
			})
			if heal && max > worstMTTR {
				worstMTTR = max
			}
			if !heal && drift > offDrift {
				offDrift = drift
			}
		}
	}
	t.Finding = fmt.Sprintf("with reconciliation every crash is healed and MTTR stays bounded (worst %s ≈ restart %v + scan period + plan execution) regardless of crash rate; without it every crash permanently strands committed intent (up to %d missing instances)",
		ns(worstMTTR), downFor, offDrift)
	return t
}
