package flexnet

import (
	"context"
	"testing"
	"time"

	"flexnet/internal/flexbpf"
)

// TestSwapUnderLoadStress drives sustained traffic through every device
// of a multi-device topology while ChangePlans commit continuously:
// repeated data-plane migrations bounce a stateful app between switches,
// replicas scale out and in, and a live delta grows a map — all with
// packets in flight, and not one may be lost: epoch-atomic swaps are
// hitless under load.
func TestSwapUnderLoadStress(t *testing.T) {
	n, err := New(7).
		Switch("s1", DRMT).
		Switch("s2", RMT).
		Switch("s3", Tile).
		Switch("s4", SoC).
		Host("h1", "10.0.0.1").
		Host("h2", "10.0.0.2").
		Link("h1", "s1").
		Link("s1", "s2").
		Link("s2", "s3").
		Link("s3", "s4").
		Link("s4", "h2").
		DRPC("s1", "172.16.0.1").
		DRPC("s2", "172.16.0.2").
		DRPC("s3", "172.16.0.3").
		DRPC("s4", "172.16.0.4").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	uri := "flexnet://infra/mon"
	if _, err := n.Deploy(ctx, uri, AppSpec{
		Programs: []*Program{HeavyHitter("hh", 2, 128, 1<<60)},
		Path:     []string{"s1"},
	}, DeployOptions{}); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	src, err := n.NewSource("h1", FlowSpec{
		Dst: MustParseIP("10.0.0.2"), Proto: 6, SrcPort: 5, DstPort: 80, PacketLen: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	src.StartCBR(50000)
	n.RunFor(10 * time.Millisecond)

	// Bounce the app between devices while traffic flows: every round
	// commits an install+activate plan with a post-commit state move.
	devs := []string{"s2", "s3", "s4", "s1", "s2"}
	for i, dst := range devs {
		rep, _, err := n.Migrate(ctx, MigrateRequest{URI: uri, Segment: "hh", Dst: dst, DataPlane: true})
		if err != nil {
			t.Fatalf("migrate %d -> %s: %v", i, dst, err)
		}
		if rep.LostUpdates != 0 {
			t.Fatalf("migrate %d -> %s lost %d updates", i, dst, rep.LostUpdates)
		}
		n.RunFor(5 * time.Millisecond)
	}
	// Replica churn: scale out to every other switch, then back in.
	for _, dev := range []string{"s1", "s3", "s4"} {
		if _, err := n.Scale(ctx, ScaleRequest{URI: uri, Segment: "hh", Device: dev}); err != nil {
			t.Fatalf("scale-out %s: %v", dev, err)
		}
		n.RunFor(2 * time.Millisecond)
	}
	for _, dev := range []string{"s1", "s3", "s4"} {
		if _, err := n.Scale(ctx, ScaleRequest{URI: uri, Segment: "hh", Device: dev, Direction: ScaleDirIn}); err != nil {
			t.Fatalf("scale-in %s: %v", dev, err)
		}
		n.RunFor(2 * time.Millisecond)
	}
	// A live program update on the remaining replica, still under load:
	// grow the heavy-hitter's reported-set map 4096 -> 8192.
	grow := &Delta{Name: "grow", Ops: []DeltaOp{
		{RemoveMaps: "hh_seen"},
		{AddMap: &flexbpf.MapSpec{Name: "hh_seen", Kind: flexbpf.MapHash, MaxEntries: 8192, ValueBits: 1, Shared: true}},
	}}
	if _, _, err := n.Update(ctx, UpdateRequest{URI: uri, Segment: "hh", Delta: grow}); err != nil {
		t.Fatalf("live update under load: %v", err)
	}
	n.RunFor(10 * time.Millisecond)
	src.Stop()
	n.RunFor(10 * time.Millisecond)

	if got := n.HostReceived("h2"); got != src.Sent || got == 0 {
		t.Fatalf("h2 received %d of %d packets — swaps were not hitless", got, src.Sent)
	}
	if drops := n.InfrastructureDrops(); drops != 0 {
		t.Fatalf("infrastructure drops = %d under swap load", drops)
	}
	if n.Device("s2").Instance(uri+"#hh") == nil {
		t.Fatal("app not on s2 after the bounce sequence")
	}
}
