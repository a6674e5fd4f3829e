package flexnet

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// deployHH deploys the heavy-hitter app on s1 and fails the test on
// error.
func deployHH(t *testing.T, n *Network, uri string) {
	t.Helper()
	_, err := n.Deploy(context.Background(), uri, AppSpec{
		Programs: []*Program{HeavyHitter("hh", 2, 128, 1<<60)},
		Path:     []string{"s1"},
	}, DeployOptions{})
	if err != nil {
		t.Fatalf("deploy %s: %v", uri, err)
	}
}

// TestOptionsAPIDeterministic drives a full control-path scenario —
// deploy, scale out, scale in, migrate, remove — through the
// context-first options-struct API on two identical networks: the
// resulting telemetry must be byte-identical, pinning the control
// surface's determinism at a seed.
func TestOptionsAPIDeterministic(t *testing.T) {
	uri := "flexnet://infra/mon"
	scenario := func(t *testing.T) string {
		n := smallNet(t)
		ctx := context.Background()
		spec := AppSpec{
			Programs: []*Program{HeavyHitter("hh", 2, 128, 1<<60)},
			Path:     []string{"s1"},
		}
		steps := []struct {
			name string
			run  func() error
		}{
			{"deploy",
				func() error { _, err := n.Deploy(ctx, uri, spec, DeployOptions{}); return err }},
			{"scale-out",
				func() error {
					_, err := n.Scale(ctx, ScaleRequest{URI: uri, Segment: "hh", Device: "s2"})
					return err
				}},
			{"scale-in",
				func() error {
					_, err := n.Scale(ctx, ScaleRequest{URI: uri, Segment: "hh", Device: "s2", Direction: ScaleDirIn})
					return err
				}},
			{"migrate",
				func() error {
					_, _, err := n.Migrate(ctx, MigrateRequest{URI: uri, Segment: "hh", Dst: "s2", DataPlane: true})
					return err
				}},
			{"remove",
				func() error { _, err := n.Remove(ctx, uri, RemoveOptions{}); return err }},
		}
		for _, s := range steps {
			if err := s.run(); err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
		}
		return n.Stats().Format()
	}
	a := scenario(t)
	b := scenario(t)
	if a != b {
		t.Fatalf("options API not deterministic:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
}

// TestDryRunOptions asserts the DryRun flag on each options struct:
// the plan is reported (outcome "planned", steps listed) and the
// network is untouched.
func TestDryRunOptions(t *testing.T) {
	uri := "flexnet://infra/mon"
	spec := AppSpec{
		Programs: []*Program{HeavyHitter("hh", 2, 128, 1<<60)},
		Path:     []string{"s1"},
	}
	ctx := context.Background()
	tests := []struct {
		name string
		// prep installs whatever state the op needs.
		prep func(t *testing.T, n *Network)
		// op performs the dry run and returns its report.
		op func(n *Network) (*PlanReport, error)
		// untouched asserts the network did not change.
		untouched func(t *testing.T, n *Network)
	}{
		{
			name: "deploy",
			prep: func(t *testing.T, n *Network) {},
			op: func(n *Network) (*PlanReport, error) {
				return n.Deploy(ctx, uri, spec, DeployOptions{DryRun: true})
			},
			untouched: func(t *testing.T, n *Network) {
				if n.Device("s1").Instance(uri+"#hh") != nil {
					t.Error("dry-run deploy installed the program")
				}
			},
		},
		{
			name: "remove",
			prep: func(t *testing.T, n *Network) { deployHH(t, n, uri) },
			op: func(n *Network) (*PlanReport, error) {
				return n.Remove(ctx, uri, RemoveOptions{DryRun: true})
			},
			untouched: func(t *testing.T, n *Network) {
				if n.Device("s1").Instance(uri+"#hh") == nil {
					t.Error("dry-run remove uninstalled the program")
				}
			},
		},
		{
			name: "migrate",
			prep: func(t *testing.T, n *Network) { deployHH(t, n, uri) },
			op: func(n *Network) (*PlanReport, error) {
				_, rep, err := n.Migrate(ctx, MigrateRequest{URI: uri, Segment: "hh", Dst: "s2", DryRun: true})
				return rep, err
			},
			untouched: func(t *testing.T, n *Network) {
				if n.Device("s2").Instance(uri+"#hh") != nil {
					t.Error("dry-run migrate installed at the destination")
				}
			},
		},
		{
			name: "scale",
			prep: func(t *testing.T, n *Network) { deployHH(t, n, uri) },
			op: func(n *Network) (*PlanReport, error) {
				return n.Scale(ctx, ScaleRequest{URI: uri, Segment: "hh", Device: "s2", DryRun: true})
			},
			untouched: func(t *testing.T, n *Network) {
				if n.Device("s2").Instance(uri+"#hh") != nil {
					t.Error("dry-run scale installed a replica")
				}
			},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			n := smallNet(t)
			tc.prep(t, n)
			before := n.Now()
			rep, err := tc.op(n)
			if err != nil {
				t.Fatalf("dry run: %v", err)
			}
			if rep == nil || rep.Outcome.String() != "planned" {
				t.Fatalf("dry-run report = %+v, want outcome planned", rep)
			}
			if len(rep.Steps) == 0 {
				t.Fatal("dry-run report lists no steps")
			}
			if n.Now() != before {
				t.Errorf("dry run advanced simulated time %v -> %v", before, n.Now())
			}
			tc.untouched(t, n)
		})
	}
}

// TestDeployCancelledContext asserts an already-cancelled context stops
// a deployment before it touches the network and surfaces
// context.Canceled.
func TestDeployCancelledContext(t *testing.T) {
	n := smallNet(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := n.Deploy(ctx, "flexnet://infra/mon", AppSpec{
		Programs: []*Program{HeavyHitter("hh", 2, 128, 1<<60)},
		Path:     []string{"s1"},
	}, DeployOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n.Device("s1").Instance("flexnet://infra/mon#hh") != nil {
		t.Fatal("cancelled deploy installed the program")
	}
}

// TestMigrateCancelledMidPlan cancels a migration while its plan is in
// flight: the plan must roll back (destination uninstalled, source
// authoritative) and the error must report context.Canceled.
func TestMigrateCancelledMidPlan(t *testing.T) {
	n := smallNet(t)
	uri := "flexnet://infra/mon"
	deployHH(t, n, uri)
	ctx, cancel := context.WithCancel(context.Background())
	// The cancel fires as a simulated event shortly after the plan
	// starts, landing inside its prepare/post window.
	n.After(200*time.Microsecond, cancel)
	_, _, err := n.Migrate(ctx, MigrateRequest{URI: uri, Segment: "hh", Dst: "s2", DataPlane: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n.Device("s2").Instance(uri+"#hh") != nil {
		t.Fatal("cancelled migration left the destination installed")
	}
	if n.Device("s1").Instance(uri+"#hh") == nil {
		t.Fatal("cancelled migration lost the source instance")
	}
	rep := n.LastPlanReport()
	if rep == nil {
		t.Fatal("no plan report")
	}
	if out := rep.Outcome.String(); out != "failed" && out != "rolled-back" {
		t.Fatalf("plan outcome = %q, want failed or rolled-back", out)
	}
	if !errors.Is(rep.Err, context.Canceled) {
		t.Fatalf("plan report err = %v, want context.Canceled", rep.Err)
	}
	// The network still works: the migration can be retried and succeed.
	if _, _, err := n.Migrate(context.Background(), MigrateRequest{URI: uri, Segment: "hh", Dst: "s2", DataPlane: true}); err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
	if n.Device("s2").Instance(uri+"#hh") == nil {
		t.Fatal("retried migration did not land on s2")
	}
}

// TestMigrateControlPlaneOnly is the regression test for the
// MigrateRequest conversion: the control-plane baseline path
// (DataPlane: false — previously an easy-to-misread bare bool) must
// move the segment and its state without dRPC chunk traffic.
func TestMigrateControlPlaneOnly(t *testing.T) {
	n := smallNet(t)
	uri := "flexnet://infra/mon"
	deployHH(t, n, uri)
	src, err := n.NewSource("h1", FlowSpec{
		Dst: MustParseIP("10.0.0.2"), Proto: 6, SrcPort: 5, DstPort: 80, PacketLen: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	src.StartCBR(20000)
	n.RunFor(20 * time.Millisecond)
	rep, planRep, err := n.Migrate(context.Background(),
		MigrateRequest{URI: uri, Segment: "hh", Dst: "s2", DataPlane: false})
	src.Stop()
	if err != nil {
		t.Fatalf("control-plane migrate: %v", err)
	}
	if n.Device("s2").Instance(uri+"#hh") == nil {
		t.Fatal("segment not on s2 after control-plane migration")
	}
	if n.Device("s1").Instance(uri+"#hh") != nil {
		t.Fatal("segment still on s1 after control-plane migration")
	}
	if rep.ChunksSent == 0 {
		t.Error("control-plane migration reports zero moved entries")
	}
	if planRep == nil || planRep.Outcome.String() != "succeeded" {
		t.Fatalf("plan report = %+v, want succeeded", planRep)
	}
	// The control-plane path freezes the source, so in-flight updates
	// during the move are counted, not silently merged via dRPC.
	if !strings.Contains(planRep.Label, "migrate") {
		t.Errorf("plan label %q does not name the migration", planRep.Label)
	}
}

// TestOpReturnsItsOwnReport: an op returns its own plan's report even
// when other plans finish while it waits. The healer submits a 52 ms
// reconcile of a restarted s2 at 1 ms. Network.Scale onto s1, submitted
// at 15 ms, commits at 47.65 ms, and its wait runs the simulator in
// 10 ms steps to 55 ms. Inside that last step the reconcile finishes,
// and then a removal on s4, submitted at 28 ms, at 54 ms. Only plans
// disjoint from the scale can: any plan costs at least 20 ms.
func TestOpReturnsItsOwnReport(t *testing.T) {
	n := New(3).
		Switch("s1", DRMT).
		Switch("s2", DRMT).
		Switch("s3", DRMT).
		Switch("s4", DRMT).
		Host("h1", "10.0.0.1").
		Host("h2", "10.0.0.2").
		Link("h1", "s1").
		Link("s1", "s2").
		Link("s2", "s3").
		Link("s3", "s4").
		Link("s4", "h2").
		MustBuild()
	ctx := context.Background()
	for _, app := range []struct{ uri, dev string }{{"flexnet://infra/mon", "s3"}, {"flexnet://infra/gone", "s4"}} {
		if _, err := n.Deploy(ctx, app.uri, AppSpec{
			Programs: []*Program{HeavyHitter("hh", 2, 128, 1<<60)},
			Path:     []string{app.dev},
		}, DeployOptions{}); err != nil {
			t.Fatalf("deploy %s: %v", app.uri, err)
		}
	}
	h := n.StartSelfHealing(time.Millisecond)
	n.Device("s2").Crash()
	n.Device("s2").Restart()
	n.RunFor(15 * time.Millisecond) // the healer's first scan, at 1 ms, submits the reconcile
	removed := false
	n.After(13*time.Millisecond, func() {
		n.Controller().Remove(ctx, "flexnet://infra/gone", func(err error) {
			if err != nil {
				t.Errorf("remove: %v", err)
			}
			removed = true
		})
	})
	rep, err := n.Scale(ctx, ScaleRequest{URI: "flexnet://infra/mon", Segment: "hh", Device: "s1"})
	if err != nil {
		t.Fatal(err)
	}
	if !removed || h.Recovered() != 1 {
		t.Fatalf("removal done %v, s2 recoveries %d: the other plans did not finish during the scale's wait", removed, h.Recovered())
	}
	if want := "scale-out flexnet://infra/mon/hh -> s1"; rep == nil || rep.Label != want {
		t.Fatalf("Scale returned %+v, want its own plan %q", rep, want)
	}
	if last := n.LastPlanReport(); last.Label != "remove flexnet://infra/gone" {
		t.Fatalf("last plan to finish = %q, want the removal", last.Label)
	}
}

// TestDeleteTenantCtx covers the context-first tenant removal.
func TestDeleteTenantCtx(t *testing.T) {
	n := smallNet(t)
	if _, err := n.AddTenant("acme"); err != nil {
		t.Fatal(err)
	}
	if err := n.DeleteTenant(context.Background(), "acme"); err != nil {
		t.Fatalf("delete tenant: %v", err)
	}
	if err := n.DeleteTenant(context.Background(), "acme"); err == nil {
		t.Fatal("deleting an absent tenant succeeded")
	}
}
