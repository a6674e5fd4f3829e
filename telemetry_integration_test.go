package flexnet

import (
	"context"
	"strings"
	"testing"
	"time"
)

// telemetryScenario drives a fixed control-path sequence — deploy,
// traffic, data-plane migrate — on a fresh network at the given seed and
// returns it with traffic drained.
func telemetryScenario(t *testing.T, seed int64) *Network {
	t.Helper()
	n, err := New(seed).
		Switch("s1", DRMT).
		Switch("s2", RMT).
		Host("h1", "10.0.0.1").
		Host("h2", "10.0.0.2").
		Link("h1", "s1").
		Link("s1", "s2").
		Link("s2", "h2").
		DRPC("s1", "172.16.0.1").
		DRPC("s2", "172.16.0.2").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	uri := "flexnet://infra/hh"
	if _, err := n.Deploy(context.Background(), uri, AppSpec{
		Programs: []*Program{HeavyHitter("hh", 2, 512, 1000)},
		Path:     []string{"s1"},
	}, DeployOptions{}); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	src, err := n.NewSource("h1", FlowSpec{
		Dst: MustParseIP("10.0.0.2"), Proto: 17,
		SrcPort: 1000, DstPort: 2000, PacketLen: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	src.StartCBR(20000)
	n.RunFor(50 * time.Millisecond)
	if _, _, err := n.Migrate(context.Background(), MigrateRequest{URI: uri, Segment: "hh", Dst: "s2", DataPlane: true}); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	src.Stop()
	n.RunFor(20 * time.Millisecond)
	return n
}

// TestTelemetryDeployMigrateCounters asserts the cross-layer counter
// deltas a deploy+migrate sequence must produce: controller op counts,
// plan pipeline counts, migration accounting, and device packet counts.
func TestTelemetryDeployMigrateCounters(t *testing.T) {
	n := telemetryScenario(t, 1)
	m := n.Metrics()

	for name, want := range map[string]uint64{
		"ctl.ops.deploy":       1,
		"ctl.ops.migrate":      1,
		"plan.executed":        2,
		"plan.succeeded":       2,
		"plan.failed":          0,
		"plan.rolled_back":     0,
		"migrate.moves":        1,
		"migrate.lost_updates": 0,
	} {
		if got := m.CounterValue(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	// Data-plane migration merges in-flight updates instead of losing them.
	if m.CounterValue("migrate.inflight_merged") == 0 {
		t.Error("migrate.inflight_merged = 0: no in-flight updates merged during live migration")
	}
	if m.CounterValue("migrate.entries_moved") == 0 {
		t.Error("migrate.entries_moved = 0")
	}
	// Devices counted the traffic they processed.
	for _, dev := range []string{"s1", "s2"} {
		if m.CounterValue("dev."+dev+".packets_processed") == 0 {
			t.Errorf("dev.%s.packets_processed = 0", dev)
		}
		if m.GaugeValue("dev."+dev+".epoch") == 0 {
			t.Errorf("dev.%s.epoch gauge never exported", dev)
		}
	}

	// The last report is the migration plan; its ID keys a trace whose
	// spans cover the whole pipeline including the post-commit move.
	rep := n.LastPlanReport()
	if rep == nil || rep.ID != "plan-2" {
		t.Fatalf("last report %+v, want ID plan-2", rep)
	}
	tr := n.PlanTrace(rep.ID)
	if tr.Outcome != "succeeded" {
		t.Fatalf("trace outcome %q", tr.Outcome)
	}
	var names []string
	for _, sp := range tr.Spans {
		names = append(names, sp.Name)
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"validate", "prepare", "commit", "post:migrate-state"} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace spans %v missing %q", names, want)
		}
	}
}

// TestTelemetryByteIdenticalAcrossRuns asserts the determinism guarantee:
// the same scenario at the same seed renders byte-identical metrics and
// traces on two independent runs.
func TestTelemetryByteIdenticalAcrossRuns(t *testing.T) {
	render := func() string {
		n := telemetryScenario(t, 1)
		var b strings.Builder
		b.WriteString(n.Stats().Format())
		tr := n.Tracer()
		for _, id := range tr.IDs() {
			b.WriteString(tr.Trace(id).Format())
		}
		return b.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("telemetry differs across identical runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
	if !strings.Contains(a, "dev.s1.packets_processed") || !strings.Contains(a, "trace plan-1") {
		t.Fatalf("rendered telemetry incomplete:\n%s", a)
	}
}
