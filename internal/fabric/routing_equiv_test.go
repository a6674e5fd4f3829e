package fabric

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// routeTableFingerprint hashes every device's published routing table
// in device order — byte-identical tables produce equal fingerprints.
func routeTableFingerprint(t *testing.T, f *Fabric) uint64 {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) { binary.LittleEndian.PutUint64(buf[:], v); h.Write(buf[:]) }
	for _, dev := range f.Devices() {
		h.Write([]byte(dev))
		inst := f.Device(dev).Instance(InfraProgramName)
		if inst == nil {
			t.Fatalf("device %s has no routing program", dev)
		}
		for _, e := range inst.Table(RouteTableName).Entries() {
			w64(uint64(e.Priority))
			for _, m := range e.Match {
				w64(m.Value)
				w64(m.Mask)
				w64(uint64(m.PrefixLen))
				w64(m.Hi)
			}
			h.Write([]byte(e.Action))
			for _, p := range e.Params {
				w64(p)
			}
		}
	}
	return h.Sum64()
}

// TestIncrementalEquivalence drives random link failure/recovery
// sequences through the incremental path on generated topologies and
// verifies after every convergence that the published tables are
// byte-identical to a forced full recompute — at several seeds.
func TestIncrementalEquivalence(t *testing.T) {
	topos := []struct {
		name  string
		build func(*Fabric) error
	}{
		{"fat-tree-k4", func(f *Fabric) error { return BuildFatTree(f, FatTreeSpec{K: 4}) }},
		{"spine-leaf", func(f *Fabric) error {
			return BuildSpineLeaf(f, SpineLeafSpec{Spines: 3, Leaves: 5, HostsPerLeaf: 3})
		}},
	}
	for _, tp := range topos {
		for _, seed := range []int64{1, 17, 404} {
			tp, seed := tp, seed
			t.Run(fmt.Sprintf("%s/seed%d", tp.name, seed), func(t *testing.T) {
				f := New(seed)
				if err := tp.build(f); err != nil {
					t.Fatal(err)
				}
				if err := f.InstallBaseRouting(); err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				links := f.Net.Links()
				down := map[int]bool{}
				for step := 0; step < 25; step++ {
					for b := 0; b <= rng.Intn(2); b++ {
						li := rng.Intn(len(links))
						down[li] = !down[li]
						links[li].SetDown(down[li])
					}
					if err := f.RefreshRoutes(); err != nil {
						t.Fatalf("step %d: incremental refresh: %v", step, err)
					}
					before := routeTableFingerprint(t, f)
					if err := f.RefreshRoutesFull(); err != nil {
						t.Fatalf("step %d: full refresh: %v", step, err)
					}
					if w := f.RouteStats().DeltaWrites; w != 0 {
						t.Fatalf("step %d: full recompute corrected %d entries — incremental state drifted", step, w)
					}
					if after := routeTableFingerprint(t, f); after != before {
						t.Fatalf("step %d: tables changed under full recompute — incremental publish drifted", step)
					}
				}
			})
		}
	}
}

// TestRefreshRoutesTouchedAppliesDeltasEverywhere checks that scoping a
// refresh to a plan's devices does not limit topology-driven deltas: a
// link failure must update every affected device even when the scope
// names just one.
func TestRefreshRoutesTouchedAppliesDeltasEverywhere(t *testing.T) {
	f := New(1)
	if err := BuildFatTree(f, FatTreeSpec{K: 4}); err != nil {
		t.Fatal(err)
	}
	if err := f.InstallBaseRouting(); err != nil {
		t.Fatal(err)
	}
	f.Net.LinkBetween("p0-e0", "p0-a0").SetDown(true)
	if err := f.RefreshRoutesTouched([]string{"p3-e1"}); err != nil {
		t.Fatal(err)
	}
	before := routeTableFingerprint(t, f)
	if err := f.RefreshRoutesFull(); err != nil {
		t.Fatal(err)
	}
	if w := f.RouteStats().DeltaWrites; w != 0 {
		t.Fatalf("scoped refresh left %d stale entries for full recompute to fix", w)
	}
	if after := routeTableFingerprint(t, f); after != before {
		t.Fatal("scoped refresh left tables differing from ground truth")
	}
}

// TestRefreshSkipsUntouchedDevices verifies the applied-state cache: a
// second refresh with no topology changes must publish no new table
// snapshots (pointer-identical instances, zero delta writes).
func TestRefreshSkipsUntouchedDevices(t *testing.T) {
	f := diamond(t)
	if err := f.RefreshRoutes(); err != nil {
		t.Fatal(err)
	}
	st := f.RouteStats()
	if st.RecomputedDests != 0 || st.DeltaWrites != 0 {
		t.Fatalf("idle refresh did work: %+v", st)
	}
}

// TestDevicesHostsCached verifies the membership caches: sorted order,
// stable slices between calls, and incremental maintenance on add.
func TestDevicesHostsCached(t *testing.T) {
	f := New(1)
	for _, n := range []string{"s3", "s1", "s2"} {
		f.AddSwitch(n, 0)
	}
	f.AddHost("h2", 0x0a000002)
	f.AddHost("h1", 0x0a000001)
	wantDevs := []string{"s1", "s2", "s3"}
	devs := f.Devices()
	for i, d := range devs {
		if d != wantDevs[i] {
			t.Fatalf("Devices() = %v, want %v", devs, wantDevs)
		}
	}
	if again := f.Devices(); &again[0] != &devs[0] {
		t.Fatal("Devices() reallocated with no membership change")
	}
	hosts := f.Hosts()
	if len(hosts) != 2 || hosts[0] != "h1" || hosts[1] != "h2" {
		t.Fatalf("Hosts() = %v, want [h1 h2]", hosts)
	}
	f.AddSwitch("a0", 0)
	devs = f.Devices()
	if len(devs) != 4 || devs[0] != "a0" {
		t.Fatalf("Devices() after add = %v, want a0 first", devs)
	}
}
