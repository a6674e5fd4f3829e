// Command flexbench runs the FlexNet experiment suite (E1–E20, the
// claim-by-claim reproduction of the paper's vision — see DESIGN.md §3)
// and prints each result table. With -o it also writes a markdown file:
// a run header, the tables and a telemetry summary. At seed 1 the tables
// are EXPERIMENTS.md's measured section and the rest is
// BENCH_BASELINE.md (scripts/benchdiff.sh checks both).
//
// Usage:
//
//	flexbench                 # run everything
//	flexbench -only E5,E11    # run a subset
//	flexbench -seed 7         # different deterministic seed
//	flexbench -o results.md   # also write markdown
//	flexbench -faults chaos.json  # replay a fault schedule on the chaos bed
//	flexbench -topo fat-tree:k=8  # routing scale smoke on a generated fabric
//	flexbench -spec-check examples/specs  # validate declarative spec documents
//	flexbench -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"flexnet"
	"flexnet/internal/experiments"
)

func main() {
	seed := flag.Int64("seed", 1, "deterministic experiment seed")
	only := flag.String("only", "", "comma-separated experiment IDs (e.g. E1,E5); empty = all")
	out := flag.String("o", "", "also write results to this markdown file")
	faultsFile := flag.String("faults", "", "replay this JSON fault schedule on the chaos bed instead of running the suite")
	topo := flag.String("topo", "", "run a routing scale smoke on this generated topology (e.g. fat-tree:k=8) instead of the suite")
	specDir := flag.String("spec-check", "", "validate every spec document in this directory (load + resolve + dry-run diff) instead of running the suite")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flexbench: create %s: %v\n", *cpuprofile, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "flexbench: cpu profile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "flexbench: create %s: %v\n", *memprofile, err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "flexbench: heap profile: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	if *specDir != "" {
		text, err := specCheck(*seed, *specDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flexbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(text)
		return
	}

	if *topo != "" {
		text, err := scaleSmoke(*seed, *topo)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flexbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(text)
		if *out != "" {
			if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "flexbench: write %s: %v\n", *out, err)
				os.Exit(1)
			}
		}
		return
	}

	if *faultsFile != "" {
		text, err := chaosRun(*seed, *faultsFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flexbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(text)
		if *out != "" {
			if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "flexbench: write %s: %v\n", *out, err)
				os.Exit(1)
			}
		}
		return
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	var rendered []string
	for _, e := range experiments.Suite {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		start := time.Now()
		tab := e.Run(*seed)
		elapsed := time.Since(start)
		text := tab.Render()
		fmt.Println(text)
		fmt.Printf("(%s took %v wall time)\n\n", e.ID, elapsed.Round(time.Millisecond))
		rendered = append(rendered, text)
	}

	if len(want) == 0 || want["TELEMETRY"] {
		text := telemetrySummary(*seed)
		fmt.Println(text)
		rendered = append(rendered, text)
	}

	if *out != "" {
		var b strings.Builder
		fmt.Fprintf(&b, "# FlexNet experiment results (seed %d)\n\n", *seed)
		b.WriteString("Generated by cmd/flexbench. All times are *simulated* time; the\n")
		b.WriteString("experiments are deterministic — the same seed reproduces every cell.\n\n")
		for _, t := range rendered {
			b.WriteString(t)
			b.WriteString("\n")
		}
		if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "flexbench: write %s: %v\n", *out, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

// chaosRun replays a JSON fault schedule against the fixed chaos bed:
// three DRMT switches carrying two committed apps and steady traffic,
// with the self-healing loop running. The summary — injected faults,
// recoveries, MTTRs, residual intent drift, and the full telemetry
// snapshot — derives entirely from the simulated clock and the
// schedule's seed, so the same (seed, schedule) pair reproduces every
// byte. See the README's operations runbook for schedule syntax.
func chaosRun(seed int64, path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sched, err := flexnet.ParseFaultSchedule(data)
	if err != nil {
		return "", err
	}
	nw := flexnet.New(seed).
		Switch("s1", flexnet.DRMT).
		Switch("s2", flexnet.DRMT).
		Switch("s3", flexnet.DRMT).
		Host("h1", "10.0.0.1").
		Host("h2", "10.0.0.2").
		Link("h1", "s1").
		Link("s1", "s2").
		Link("s2", "h2").
		Link("s2", "s3").
		MustBuild()
	if _, err := nw.Deploy(context.Background(), "flexnet://chaos/syn", flexnet.AppSpec{
		Programs: []*flexnet.Program{flexnet.SYNDefense("syn", 1024, 10)},
		Path:     []string{"s1"},
	}, flexnet.DeployOptions{}); err != nil {
		return "", fmt.Errorf("deploy syn: %w", err)
	}
	if _, err := nw.Deploy(context.Background(), "flexnet://chaos/hh", flexnet.AppSpec{
		Programs: []*flexnet.Program{flexnet.HeavyHitter("hh", 2, 512, 1000)},
		Path:     []string{"s2"},
	}, flexnet.DeployOptions{}); err != nil {
		return "", fmt.Errorf("deploy hh: %w", err)
	}
	healer := nw.StartSelfHealing(time.Millisecond)
	plane := nw.NewFaultPlane(sched.Seed)
	if err := plane.Apply(sched); err != nil {
		return "", err
	}
	src, err := nw.NewSource("h1", flexnet.FlowSpec{
		Dst: flexnet.MustParseIP("10.0.0.2"), Proto: 17,
		SrcPort: 1000, DstPort: 2000, PacketLen: 256,
	})
	if err != nil {
		return "", err
	}
	src.StartCBR(20000)
	// Run until every scheduled fault has fired and expired, plus a
	// settle window for the last reconciliations to commit.
	var horizon uint64
	for _, e := range sched.Events {
		if end := e.At + e.DurationNs; end > horizon {
			horizon = end
		}
	}
	nw.RunFor(time.Duration(horizon) + 500*time.Millisecond)
	src.Stop()

	var b strings.Builder
	fmt.Fprintf(&b, "# FlexNet chaos run (seed %d, schedule %s)\n\n", seed, path)
	fmt.Fprintf(&b, "events scheduled: %d\n", len(sched.Events))
	kinds := make([]string, 0, len(plane.Injected))
	for k := range plane.Injected {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, "injected %-17s %d\n", k+":", plane.Injected[flexnet.FaultKind(k)])
	}
	fmt.Fprintf(&b, "recoveries: %d\n", healer.Recovered())
	for i, m := range healer.MTTRs {
		fmt.Fprintf(&b, "  mttr[%d]: %v\n", i, time.Duration(m))
	}
	if pending := healer.Pending(); len(pending) > 0 {
		fmt.Fprintf(&b, "pending reconciliation: %s\n", strings.Join(pending, ", "))
	}
	if drift := nw.IntentDrift(); len(drift) > 0 {
		b.WriteString("INTENT DRIFT:\n")
		for _, d := range drift {
			fmt.Fprintf(&b, "  %s\n", d)
		}
	} else {
		b.WriteString("intent drift: none\n")
	}
	b.WriteString("\n```\n")
	b.WriteString(nw.Stats().Format())
	b.WriteString("```\n")
	return b.String(), nil
}

// telemetrySummary runs a fixed control-path scenario at the given seed —
// deploy, traffic, data-plane migration, removal — and renders the
// resulting telemetry: the full metric snapshot plus every plan trace.
// Everything derives from the simulated clock, so the output is
// byte-identical across runs at a seed (select it alone with
// -only telemetry).
func telemetrySummary(seed int64) string {
	nw := flexnet.New(seed).
		Switch("s1", flexnet.DRMT).
		Switch("s2", flexnet.RMT).
		Host("h1", "10.0.0.1").
		Host("h2", "10.0.0.2").
		Link("h1", "s1").
		Link("s1", "s2").
		Link("s2", "h2").
		DRPC("s1", "172.16.0.1").
		DRPC("s2", "172.16.0.2").
		MustBuild()
	// A 3-replica controller group, so the snapshot carries the ha.*
	// instruments (heartbeats, syncs, failover histogram) and the
	// baseline pins their deterministic values.
	nw.EnableHA(3, flexnet.HAConfig{Seed: seed})
	uri := "flexnet://infra/hh"
	if _, err := nw.Deploy(context.Background(), uri, flexnet.AppSpec{
		Programs: []*flexnet.Program{flexnet.HeavyHitter("hh", 2, 512, 1000)},
		Path:     []string{"s1"},
	}, flexnet.DeployOptions{}); err != nil {
		return fmt.Sprintf("## Telemetry summary\n\ndeploy failed: %v\n", err)
	}
	src, err := nw.NewSource("h1", flexnet.FlowSpec{
		Dst: flexnet.MustParseIP("10.0.0.2"), Proto: 17,
		SrcPort: 1000, DstPort: 2000, PacketLen: 256,
	})
	if err != nil {
		return fmt.Sprintf("## Telemetry summary\n\nsource failed: %v\n", err)
	}
	src.StartCBR(20000)
	nw.RunFor(50 * time.Millisecond)
	if _, _, err := nw.Migrate(context.Background(), flexnet.MigrateRequest{URI: uri, Segment: "hh", Dst: "s2", DataPlane: true}); err != nil {
		return fmt.Sprintf("## Telemetry summary\n\nmigrate failed: %v\n", err)
	}
	nw.RunFor(20 * time.Millisecond)
	src.Stop()
	// The runbook's failover drill: kill the leader, let a standby take
	// over, and let the old leader rejoin before tearing down.
	if _, err := nw.HAFailover(); err != nil {
		return fmt.Sprintf("## Telemetry summary\n\nfailover drill failed: %v\n", err)
	}
	nw.RunFor(time.Second)
	if _, err := nw.Remove(context.Background(), uri, flexnet.RemoveOptions{}); err != nil {
		return fmt.Sprintf("## Telemetry summary\n\nremove failed: %v\n", err)
	}

	var b strings.Builder
	b.WriteString("## Telemetry summary\n\n")
	fmt.Fprintf(&b, "Control-path scenario at seed %d: deploy → traffic → data-plane\n", seed)
	b.WriteString("migrate → remove. All values are simulated-time deterministic.\n\n")
	b.WriteString("```\n")
	b.WriteString(nw.Stats().Format())
	tr := nw.Tracer()
	for _, id := range tr.IDs() {
		b.WriteString("\n")
		b.WriteString(tr.Trace(id).Format())
	}
	b.WriteString("```\n")
	return b.String()
}
