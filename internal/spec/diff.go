package spec

import (
	"fmt"
	"sort"
)

func sortStrings(s []string) { sort.Strings(s) }

// Live is the controller's intent state snapshotted into the spec
// vocabulary: which tenants exist, which apps run where, and each live
// segment's program fingerprint and replica set. The controller builds
// it (Controller.LiveSpecState); the differ consumes it.
type Live struct {
	Tenants []string
	Apps    map[string]*LiveApp
}

// LiveApp is one deployed app's intent state.
type LiveApp struct {
	Tenant   string
	Path     []string
	Segments map[string]LiveSegment
}

// LiveSegment is one deployed segment: its program fingerprint and the
// devices carrying replicas (primary first, in install order).
type LiveSegment struct {
	FP       uint64
	Replicas []string
}

// Diff is the minimal change set converging live state to a resolved
// spec. All slices are sorted so diff output, plan compilation and the
// audit trail are deterministic.
type Diff struct {
	Version string

	AddTenants    []string
	RemoveTenants []string

	// Create lists apps in the spec but not live (or whose tenant/path
	// changed, forcing recreate — see Recreate).
	Create []*ResolvedApp
	// Delete lists live app URIs absent from the spec.
	Delete []string
	// Recreate lists app URIs whose identity-level fields (tenant,
	// path) changed; they appear in both Delete and Create.
	Recreate []string

	// Swap lists segments whose program fingerprint changed (a retune:
	// new table size, threshold, rate …) — converged by hitless swap on
	// every replica.
	Swap []SegmentChange
	// ScaleUp / ScaleDown list segments whose replica count differs
	// from the declared scale.
	ScaleUp   []ScaleChange
	ScaleDown []ScaleChange
}

// SegmentChange identifies one segment retune.
type SegmentChange struct {
	URI     string
	Segment string
	// Seg is the desired resolved segment (program and fingerprint).
	Seg *ResolvedSegment
	// Replicas are the live devices the swap must cover.
	Replicas []string
}

// ScaleChange identifies one segment replica-count change.
type ScaleChange struct {
	URI     string
	Segment string
	Seg     *ResolvedSegment
	// Delta is desired minus live replica count (positive for scale-up).
	Delta int
	// Victims, for scale-down, are the devices to vacate — the
	// newest-added replicas first, never the primary.
	Victims []string
}

// Compute diffs desired (resolved spec) against live state. It is pure
// and deterministic: same inputs, same diff, in sorted order.
func Compute(want *Resolved, live *Live) *Diff {
	d := &Diff{Version: want.Version}

	liveTenants := map[string]bool{}
	for _, t := range live.Tenants {
		liveTenants[t] = true
	}
	wantTenants := map[string]bool{}
	for _, t := range want.Tenants {
		wantTenants[t] = true
		if !liveTenants[t] {
			d.AddTenants = append(d.AddTenants, t)
		}
	}
	for _, t := range live.Tenants {
		if !wantTenants[t] {
			d.RemoveTenants = append(d.RemoveTenants, t)
		}
	}
	sortStrings(d.AddTenants)
	sortStrings(d.RemoveTenants)

	for _, uri := range want.AppURIs() {
		ra := want.Apps[uri]
		la, ok := live.Apps[uri]
		if !ok {
			d.Create = append(d.Create, ra)
			continue
		}
		if la.Tenant != ra.Tenant || !equalStrings(la.Path, ra.Path) ||
			!sameSegmentSet(la, ra) {
			// Identity-level change: tear down and redeploy. Segment
			// set changes (add/drop/rename a chain stage) also recreate
			// — the datapath chain is structural, not retunable.
			d.Recreate = append(d.Recreate, uri)
			d.Delete = append(d.Delete, uri)
			d.Create = append(d.Create, ra)
			continue
		}
		for i := range ra.Segments {
			seg := &ra.Segments[i]
			ls := la.Segments[seg.Name]
			if ls.FP != seg.FP() {
				d.Swap = append(d.Swap, SegmentChange{
					URI: uri, Segment: seg.Name, Seg: seg,
					Replicas: append([]string(nil), ls.Replicas...),
				})
			}
			if delta := seg.Scale - len(ls.Replicas); delta > 0 {
				d.ScaleUp = append(d.ScaleUp, ScaleChange{URI: uri, Segment: seg.Name, Seg: seg, Delta: delta})
			} else if delta < 0 {
				// Vacate newest replicas first; the primary (index 0)
				// survives as long as scale ≥ 1.
				victims := append([]string(nil), ls.Replicas[seg.Scale:]...)
				for i, j := 0, len(victims)-1; i < j; i, j = i+1, j-1 {
					victims[i], victims[j] = victims[j], victims[i]
				}
				d.ScaleDown = append(d.ScaleDown, ScaleChange{URI: uri, Segment: seg.Name, Seg: seg, Delta: delta, Victims: victims})
			}
		}
	}
	liveURIs := make([]string, 0, len(live.Apps))
	for uri := range live.Apps {
		liveURIs = append(liveURIs, uri)
	}
	sortStrings(liveURIs)
	for _, uri := range liveURIs {
		if _, ok := want.Apps[uri]; !ok {
			d.Delete = append(d.Delete, uri)
		}
	}
	sortStrings(d.Delete)
	sortStrings(d.Recreate)
	return d
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sameSegmentSet reports whether the live app carries exactly the
// spec's segment names (chain membership, not tuning).
func sameSegmentSet(la *LiveApp, ra *ResolvedApp) bool {
	if len(la.Segments) != len(ra.Segments) {
		return false
	}
	for i := range ra.Segments {
		if _, ok := la.Segments[ra.Segments[i].Name]; !ok {
			return false
		}
	}
	return true
}

// Empty reports whether live state already matches the spec.
func (d *Diff) Empty() bool {
	return len(d.AddTenants) == 0 && len(d.RemoveTenants) == 0 &&
		len(d.Create) == 0 && len(d.Delete) == 0 &&
		len(d.Swap) == 0 && len(d.ScaleUp) == 0 && len(d.ScaleDown) == 0
}

// Ops counts the imperative per-op API calls this diff would cost if
// replayed through the one-op-one-plan interface: one deploy per
// created app, one scale-out/in per replica delta, one update per
// segment retune, one remove per deleted app, one call per tenant
// change. This is the baseline E19 measures batched plan counts
// against.
func (d *Diff) Ops() int {
	n := len(d.AddTenants) + len(d.RemoveTenants) + len(d.Delete)
	for _, a := range d.Create {
		n++ // deploy
		for i := range a.Segments {
			n += a.Segments[i].Scale - 1 // scale-outs past the primary
		}
	}
	n += len(d.Swap)
	for _, s := range d.ScaleUp {
		n += s.Delta
	}
	for _, s := range d.ScaleDown {
		n += -s.Delta
	}
	return n
}

// Summary renders the diff as deterministic human-readable lines, one
// per change, for `flexctl spec diff`.
func (d *Diff) Summary() []string {
	var out []string
	for _, t := range d.AddTenants {
		out = append(out, fmt.Sprintf("+ tenant %s", t))
	}
	for _, t := range d.RemoveTenants {
		out = append(out, fmt.Sprintf("- tenant %s", t))
	}
	recreate := map[string]bool{}
	for _, uri := range d.Recreate {
		recreate[uri] = true
	}
	for _, uri := range d.Delete {
		if recreate[uri] {
			out = append(out, fmt.Sprintf("~ app %s (recreate: identity changed)", uri))
		} else {
			out = append(out, fmt.Sprintf("- app %s", uri))
		}
	}
	for _, a := range d.Create {
		if recreate[a.URI] {
			continue // already summarized as recreate
		}
		segs := 0
		for i := range a.Segments {
			segs += a.Segments[i].Scale
		}
		out = append(out, fmt.Sprintf("+ app %s (%d segments, %d replicas)", a.URI, len(a.Segments), segs))
	}
	for _, s := range d.Swap {
		out = append(out, fmt.Sprintf("~ swap %s#%s on %d replicas (%s %v)", s.URI, s.Segment, len(s.Replicas), s.Seg.Kind, s.Seg.Args))
	}
	for _, s := range d.ScaleUp {
		out = append(out, fmt.Sprintf("~ scale %s#%s +%d", s.URI, s.Segment, s.Delta))
	}
	for _, s := range d.ScaleDown {
		out = append(out, fmt.Sprintf("~ scale %s#%s %d (vacate %v)", s.URI, s.Segment, s.Delta, s.Victims))
	}
	if len(out) == 0 {
		out = append(out, "(no changes)")
	}
	return out
}
