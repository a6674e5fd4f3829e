// Topology generators for scale-out fabrics.
//
// BuildFatTree and BuildSpineLeaf grow a Fabric to data-center scale
// (k=16 fat-tree: 320 switches, 1024 hosts) so the incremental routing
// engine (DESIGN.md §11) can be measured against realistic device
// counts. ParseTopo accepts the compact spec strings the cmd/ binaries
// take via -topo.
package fabric

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"flexnet/internal/dataplane"
	"flexnet/internal/netsim"
)

// FatTreeSpec parameterizes a canonical k-ary fat-tree: k pods, each
// with k/2 edge and k/2 aggregation switches, (k/2)² core switches,
// and HostsPerEdge hosts under every edge switch.
type FatTreeSpec struct {
	// K is the pod count and switch radix. Must be even and >= 4.
	K int
	// HostsPerEdge is the number of hosts per edge switch. Defaults to
	// K/2 (the canonical full fat-tree). Max 253 (hosts share a /24).
	HostsPerEdge int
}

// SpineLeafSpec parameterizes a two-tier spine-leaf fabric: every leaf
// connects to every spine, hosts hang off leaves.
type SpineLeafSpec struct {
	Spines, Leaves int
	// HostsPerLeaf defaults to 4. Max 253.
	HostsPerLeaf int
}

// Generated fabrics are RMT switches joined by 40G switch-switch links
// (fabricLink) and 10G host-edge links (accessLink).
var (
	fabricLink = netsim.LinkParams{BandwidthBps: 40_000_000_000, Delay: time.Microsecond, QueueBytes: 1 << 20}
	accessLink = netsim.LinkParams{BandwidthBps: 10_000_000_000, Delay: 2 * time.Microsecond, QueueBytes: 1 << 20}
)

// BuildFatTree populates f with a k-ary fat-tree. Naming: pod p's edge
// switches are p{p}-e{j}, aggregation p{p}-a{j}, cores c{n}; host m
// under p{p}-e{j} is p{p}-e{j}-h{m} with IP 10.p.j.(m+2). Call
// InstallBaseRouting afterwards.
func BuildFatTree(f *Fabric, spec FatTreeSpec) error {
	k := spec.K
	if k < 4 || k%2 != 0 {
		return fmt.Errorf("fabric: fat-tree k must be even and >= 4, got %d", k)
	}
	if k > 254 {
		return fmt.Errorf("fabric: fat-tree k too large for 10.pod.edge/24 addressing: %d", k)
	}
	hosts := spec.HostsPerEdge
	if hosts == 0 {
		hosts = k / 2
	}
	if hosts < 1 || hosts > 253 {
		return fmt.Errorf("fabric: fat-tree hosts-per-edge out of range [1,253]: %d", hosts)
	}
	half := k / 2
	for p := 0; p < k; p++ {
		for j := 0; j < half; j++ {
			f.AddSwitch(fmt.Sprintf("p%d-e%d", p, j), dataplane.ArchRMT)
		}
		for j := 0; j < half; j++ {
			f.AddSwitch(fmt.Sprintf("p%d-a%d", p, j), dataplane.ArchRMT)
		}
	}
	for n := 0; n < half*half; n++ {
		f.AddSwitch(fmt.Sprintf("c%d", n), dataplane.ArchRMT)
	}
	// Hosts first on every edge switch: a host's only link must be its
	// uplink (Host.Send transmits on port 0), and connecting access
	// links before fabric links keeps edge port numbering stable
	// (ports [0,hosts) face hosts, [hosts,hosts+k/2) face aggregation).
	for p := 0; p < k; p++ {
		for j := 0; j < half; j++ {
			edge := fmt.Sprintf("p%d-e%d", p, j)
			for m := 0; m < hosts; m++ {
				name := fmt.Sprintf("%s-h%d", edge, m)
				ip := uint32(10<<24 | p<<16 | j<<8 | (m + 2))
				f.AddHost(name, ip)
				f.Connect(name, edge, accessLink)
			}
		}
	}
	for p := 0; p < k; p++ {
		for j := 0; j < half; j++ {
			edge := fmt.Sprintf("p%d-e%d", p, j)
			for a := 0; a < half; a++ {
				f.Connect(edge, fmt.Sprintf("p%d-a%d", p, a), fabricLink)
			}
		}
	}
	// Aggregation switch j in every pod uplinks to the j-th group of
	// k/2 core switches, giving each pod one path to every core.
	for p := 0; p < k; p++ {
		for j := 0; j < half; j++ {
			agg := fmt.Sprintf("p%d-a%d", p, j)
			for m := 0; m < half; m++ {
				f.Connect(agg, fmt.Sprintf("c%d", j*half+m), fabricLink)
			}
		}
	}
	return nil
}

// BuildSpineLeaf populates f with a spine-leaf fabric. Naming: spines
// s{i}, leaves l{j}, host m under leaf j is l{j}-h{m} with IP
// 10.1.j.(m+2). Call InstallBaseRouting afterwards.
func BuildSpineLeaf(f *Fabric, spec SpineLeafSpec) error {
	if spec.Spines < 1 || spec.Leaves < 1 {
		return fmt.Errorf("fabric: spine-leaf needs spines >= 1 and leaves >= 1, got %d/%d", spec.Spines, spec.Leaves)
	}
	if spec.Leaves > 254 {
		return fmt.Errorf("fabric: spine-leaf leaves too large for 10.1.leaf/24 addressing: %d", spec.Leaves)
	}
	hosts := spec.HostsPerLeaf
	if hosts == 0 {
		hosts = 4
	}
	if hosts < 1 || hosts > 253 {
		return fmt.Errorf("fabric: spine-leaf hosts-per-leaf out of range [1,253]: %d", hosts)
	}
	for i := 0; i < spec.Spines; i++ {
		f.AddSwitch(fmt.Sprintf("s%d", i), dataplane.ArchRMT)
	}
	for j := 0; j < spec.Leaves; j++ {
		f.AddSwitch(fmt.Sprintf("l%d", j), dataplane.ArchRMT)
	}
	for j := 0; j < spec.Leaves; j++ {
		leaf := fmt.Sprintf("l%d", j)
		for m := 0; m < hosts; m++ {
			name := fmt.Sprintf("%s-h%d", leaf, m)
			ip := uint32(10<<24 | 1<<16 | j<<8 | (m + 2))
			f.AddHost(name, ip)
			f.Connect(name, leaf, accessLink)
		}
	}
	for j := 0; j < spec.Leaves; j++ {
		leaf := fmt.Sprintf("l%d", j)
		for i := 0; i < spec.Spines; i++ {
			f.Connect(leaf, fmt.Sprintf("s%d", i), fabricLink)
		}
	}
	return nil
}

// TopoSpec is a parsed -topo argument: exactly one of FatTree or
// SpineLeaf is set.
type TopoSpec struct {
	FatTree   *FatTreeSpec
	SpineLeaf *SpineLeafSpec
}

// Build populates f with the parsed topology.
func (t TopoSpec) Build(f *Fabric) error {
	switch {
	case t.FatTree != nil:
		return BuildFatTree(f, *t.FatTree)
	case t.SpineLeaf != nil:
		return BuildSpineLeaf(f, *t.SpineLeaf)
	}
	return fmt.Errorf("fabric: empty topology spec")
}

// ParseTopo parses a compact topology spec:
//
//	fat-tree:k=8            canonical fat-tree, k/2 hosts per edge
//	fat-tree:k=8,hosts=2    override hosts per edge switch
//	spine-leaf:spines=4,leaves=8,hosts=10
func ParseTopo(s string) (TopoSpec, error) {
	kind, rest, _ := strings.Cut(s, ":")
	params := map[string]int{}
	if rest != "" {
		for _, kv := range strings.Split(rest, ",") {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return TopoSpec{}, fmt.Errorf("fabric: topo spec %q: parameter %q is not key=value", s, kv)
			}
			n, err := strconv.Atoi(val)
			if err != nil {
				return TopoSpec{}, fmt.Errorf("fabric: topo spec %q: parameter %q: %v", s, kv, err)
			}
			params[key] = n
		}
	}
	allowed := func(keys ...string) error {
		for k := range params {
			found := false
			for _, a := range keys {
				if k == a {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("fabric: topo spec %q: unknown parameter %q", s, k)
			}
		}
		return nil
	}
	switch kind {
	case "fat-tree":
		if err := allowed("k", "hosts"); err != nil {
			return TopoSpec{}, err
		}
		if params["k"] == 0 {
			return TopoSpec{}, fmt.Errorf("fabric: topo spec %q: fat-tree requires k=N", s)
		}
		return TopoSpec{FatTree: &FatTreeSpec{K: params["k"], HostsPerEdge: params["hosts"]}}, nil
	case "spine-leaf":
		if err := allowed("spines", "leaves", "hosts"); err != nil {
			return TopoSpec{}, err
		}
		if params["spines"] == 0 || params["leaves"] == 0 {
			return TopoSpec{}, fmt.Errorf("fabric: topo spec %q: spine-leaf requires spines=N,leaves=M", s)
		}
		return TopoSpec{SpineLeaf: &SpineLeafSpec{
			Spines:       params["spines"],
			Leaves:       params["leaves"],
			HostsPerLeaf: params["hosts"],
		}}, nil
	}
	return TopoSpec{}, fmt.Errorf("fabric: unknown topology kind %q (want fat-tree or spine-leaf)", kind)
}
