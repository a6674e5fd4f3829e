package fabric

import (
	"fmt"
	"strings"
	"testing"
)

// degreeOf counts links per node name.
func degreeOf(f *Fabric) map[string]int {
	deg := map[string]int{}
	for _, l := range f.Net.Links() {
		a, b := l.Ends()
		deg[a]++
		deg[b]++
	}
	return deg
}

// neighborsOf maps node name → set of peers.
func neighborsOf(f *Fabric) map[string]map[string]bool {
	nb := map[string]map[string]bool{}
	add := func(a, b string) {
		if nb[a] == nil {
			nb[a] = map[string]bool{}
		}
		nb[a][b] = true
	}
	for _, l := range f.Net.Links() {
		a, b := l.Ends()
		add(a, b)
		add(b, a)
	}
	return nb
}

func TestFatTreeInvariants(t *testing.T) {
	for _, k := range []int{4, 8, 16} {
		k := k
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			f := New(1)
			if err := BuildFatTree(f, FatTreeSpec{K: k}); err != nil {
				t.Fatal(err)
			}
			half := k / 2
			wantSwitches := k*k + half*half // k pods × (k/2 edge + k/2 agg) + (k/2)² core
			wantHosts := k * half * half
			if got := len(f.Devices()); got != wantSwitches {
				t.Fatalf("switches = %d, want %d", got, wantSwitches)
			}
			if got := len(f.Hosts()); got != wantHosts {
				t.Fatalf("hosts = %d, want %d", got, wantHosts)
			}

			deg := degreeOf(f)
			nb := neighborsOf(f)
			for p := 0; p < k; p++ {
				for j := 0; j < half; j++ {
					edge := fmt.Sprintf("p%d-e%d", p, j)
					if deg[edge] != k {
						t.Fatalf("%s degree = %d, want %d (k/2 hosts + k/2 aggs)", edge, deg[edge], k)
					}
					agg := fmt.Sprintf("p%d-a%d", p, j)
					if deg[agg] != k {
						t.Fatalf("%s degree = %d, want %d (k/2 edges + k/2 cores)", agg, deg[agg], k)
					}
					// Pod structure: an edge switch peers only with its own
					// hosts and its own pod's aggregation tier.
					for peer := range nb[edge] {
						ownHost := strings.HasPrefix(peer, edge+"-h")
						ownAgg := strings.HasPrefix(peer, fmt.Sprintf("p%d-a", p))
						if !ownHost && !ownAgg {
							t.Fatalf("%s peers with %s outside its pod", edge, peer)
						}
					}
				}
			}
			// Path diversity: every core switch reaches every pod exactly
			// once, so inter-pod traffic has (k/2)² core-disjoint paths.
			for c := 0; c < half*half; c++ {
				core := fmt.Sprintf("c%d", c)
				if deg[core] != k {
					t.Fatalf("%s degree = %d, want %d (one agg per pod)", core, deg[core], k)
				}
				pods := map[string]bool{}
				for peer := range nb[core] {
					pod, _, _ := strings.Cut(peer, "-")
					if pods[pod] {
						t.Fatalf("%s has two links into %s", core, pod)
					}
					pods[pod] = true
				}
				if len(pods) != k {
					t.Fatalf("%s reaches %d pods, want %d", core, len(pods), k)
				}
			}

			// All-pairs reachability: after routing converges every switch
			// holds a route for every host (and the engine agrees).
			if err := f.InstallBaseRouting(); err != nil {
				t.Fatal(err)
			}
			if got, want := f.TotalRoutes(), wantSwitches*wantHosts; got != want {
				t.Fatalf("total routes = %d, want %d (all pairs)", got, want)
			}
			for _, dev := range f.Devices() {
				inst := f.Device(dev).Instance(InfraProgramName)
				if n := inst.Table(RouteTableName).Len(); n != wantHosts {
					t.Fatalf("%s routing table has %d entries, want %d", dev, n, wantHosts)
				}
			}
		})
	}
}

func TestFatTreeHostUplinkIsPortZero(t *testing.T) {
	f := New(1)
	if err := BuildFatTree(f, FatTreeSpec{K: 4}); err != nil {
		t.Fatal(err)
	}
	// Host.Send transmits on port 0; the generator must wire the access
	// link first so that port exists and faces the edge switch.
	l := f.Net.LinkBetween("p0-e0-h0", "p0-e0")
	if l == nil {
		t.Fatal("no access link for p0-e0-h0")
	}
}

func TestSpineLeafInvariants(t *testing.T) {
	f := New(1)
	spec := SpineLeafSpec{Spines: 4, Leaves: 8, HostsPerLeaf: 10}
	if err := BuildSpineLeaf(f, spec); err != nil {
		t.Fatal(err)
	}
	if got := len(f.Devices()); got != 12 {
		t.Fatalf("switches = %d, want 12", got)
	}
	if got := len(f.Hosts()); got != 80 {
		t.Fatalf("hosts = %d, want 80", got)
	}
	deg := degreeOf(f)
	for i := 0; i < spec.Spines; i++ {
		if got := deg[fmt.Sprintf("s%d", i)]; got != spec.Leaves {
			t.Fatalf("spine s%d degree = %d, want %d", i, got, spec.Leaves)
		}
	}
	for j := 0; j < spec.Leaves; j++ {
		if got := deg[fmt.Sprintf("l%d", j)]; got != spec.Spines+spec.HostsPerLeaf {
			t.Fatalf("leaf l%d degree = %d, want %d", j, got, spec.Spines+spec.HostsPerLeaf)
		}
	}
	if err := f.InstallBaseRouting(); err != nil {
		t.Fatal(err)
	}
	if got, want := f.TotalRoutes(), 12*80; got != want {
		t.Fatalf("total routes = %d, want %d", got, want)
	}
}

func TestBuildFatTreeRejectsBadSpecs(t *testing.T) {
	for _, spec := range []FatTreeSpec{{K: 0}, {K: 3}, {K: 2}, {K: 4, HostsPerEdge: 300}} {
		if err := BuildFatTree(New(1), spec); err == nil {
			t.Fatalf("BuildFatTree(%+v) succeeded, want error", spec)
		}
	}
}

func TestParseTopo(t *testing.T) {
	ts, err := ParseTopo("fat-tree:k=8")
	if err != nil || ts.FatTree == nil || ts.FatTree.K != 8 || ts.FatTree.HostsPerEdge != 0 {
		t.Fatalf("fat-tree:k=8 → %+v, %v", ts, err)
	}
	ts, err = ParseTopo("fat-tree:k=4,hosts=2")
	if err != nil || ts.FatTree == nil || ts.FatTree.HostsPerEdge != 2 {
		t.Fatalf("fat-tree:k=4,hosts=2 → %+v, %v", ts, err)
	}
	ts, err = ParseTopo("spine-leaf:spines=4,leaves=8,hosts=10")
	if err != nil || ts.SpineLeaf == nil || ts.SpineLeaf.Spines != 4 || ts.SpineLeaf.Leaves != 8 || ts.SpineLeaf.HostsPerLeaf != 10 {
		t.Fatalf("spine-leaf spec → %+v, %v", ts, err)
	}
	for _, bad := range []string{
		"", "mesh:k=4", "fat-tree", "fat-tree:k", "fat-tree:k=x",
		"fat-tree:pods=4", "spine-leaf:spines=4", "fat-tree:k=8,hosts=2,extra=1",
	} {
		if _, err := ParseTopo(bad); err == nil {
			t.Fatalf("ParseTopo(%q) succeeded, want error", bad)
		}
	}
}
