// Package spec implements FlexNet's declarative network specification.
//
// A spec is the desired state of the whole network — tenants, apps,
// placements, per-segment scale counts and table sizes — in one
// versioned document (YAML or JSON). Instead of mutating the network
// with imperative per-op calls (deploy, scale, update, …), an operator
// edits the spec and applies it; the controller diffs the resolved spec
// against live state and compiles the difference into a minimal set of
// batched ChangePlans (DESIGN.md §14). This is the declarative-over-
// imperative shift the paper's runtime-fungible view implies: programs
// and placements are resources you *declare*, and the control plane
// owns the mechanics of converging to them.
//
// The package is a leaf: it knows flexbpf programs (to resolve builtin
// app kinds into datapaths) and nothing about the controller. The
// controller imports it, snapshots its live state into spec.Live, and
// feeds spec.Compute's diff to its wave planner.
package spec

import (
	"fmt"
	"slices"
	"strings"
)

// Spec is the parsed document, before resolution. Field names are the
// wire format for both YAML and JSON inputs.
type Spec struct {
	// Version labels this revision of intent ("v1", "2026-08-08", a git
	// SHA — any non-empty string). It flows into plan reports and the
	// audit trail so every mutation is attributable to a spec revision.
	Version string       `json:"version"`
	Tenants []TenantSpec `json:"tenants,omitempty"`
	Apps    []AppSpec    `json:"apps,omitempty"`
}

// TenantSpec declares one tenant namespace.
type TenantSpec struct {
	Name string `json:"name"`
}

// AppSpec declares one app: a chain of program segments owned by a
// tenant, constrained to a device path.
type AppSpec struct {
	// URI is the app identity, "flexnet://<owner>/<name>".
	URI string `json:"uri"`
	// Tenant must reference a declared tenant. Empty means an
	// untenanted infrastructure app (no VLAN isolation filter), exactly
	// as an empty DeployOptions tenant does.
	Tenant string `json:"tenant,omitempty"`
	// Path constrains placement to these devices (in order), exactly as
	// DeployOptions.Path does. Empty means fabric-wide placement.
	Path []string `json:"path,omitempty"`
	// Segments is the app's datapath, in chain order.
	Segments []SegmentSpec `json:"segments"`
}

// SegmentSpec declares one program segment of an app's datapath.
type SegmentSpec struct {
	// Name is the segment name, unique within the app.
	Name string `json:"name"`
	// App is the builtin app kind ("firewall", "heavy-hitter", …; see
	// apps.BuiltinKinds).
	App string `json:"app"`
	// Args is the kind's numeric argument vector — table sizes, QoS
	// rates, thresholds. Changing an arg retunes the segment: the
	// differ detects the new program fingerprint and emits a hitless
	// swap. Missing args take the kind's defaults.
	Args []uint64 `json:"args,omitempty"`
	// Scale is the desired replica count (default 1). The first replica
	// follows Path placement; extras are placed like scale-out does.
	Scale int `json:"scale,omitempty"`
}

// Validate checks document-level invariants that need no program
// resolution: version present, tenant references valid, URIs unique and
// well-formed, segment names unique, scale counts sane.
func (s *Spec) Validate() error {
	if strings.TrimSpace(s.Version) == "" {
		return fmt.Errorf("spec: version is required")
	}
	tenants := make(map[string]bool, len(s.Tenants))
	for _, t := range s.Tenants {
		if t.Name == "" {
			return fmt.Errorf("spec %s: tenant with empty name", s.Version)
		}
		if tenants[t.Name] {
			return fmt.Errorf("spec %s: duplicate tenant %q", s.Version, t.Name)
		}
		tenants[t.Name] = true
	}
	uris := make(map[string]bool, len(s.Apps))
	for _, a := range s.Apps {
		if err := validURI(a.URI); err != nil {
			return fmt.Errorf("spec %s: %w", s.Version, err)
		}
		if uris[a.URI] {
			return fmt.Errorf("spec %s: duplicate app %q", s.Version, a.URI)
		}
		uris[a.URI] = true
		if a.Tenant != "" && !tenants[a.Tenant] {
			return fmt.Errorf("spec %s: app %s references undeclared tenant %q", s.Version, a.URI, a.Tenant)
		}
		if len(a.Segments) == 0 {
			return fmt.Errorf("spec %s: app %s has no segments", s.Version, a.URI)
		}
		segs := map[string]bool{}
		for _, g := range a.Segments {
			if g.Name == "" {
				return fmt.Errorf("spec %s: app %s: segment with empty name", s.Version, a.URI)
			}
			if segs[g.Name] {
				return fmt.Errorf("spec %s: app %s: duplicate segment %q", s.Version, a.URI, g.Name)
			}
			segs[g.Name] = true
			if g.App == "" {
				return fmt.Errorf("spec %s: app %s segment %s: app kind is required", s.Version, a.URI, g.Name)
			}
			if g.Scale < 0 {
				return fmt.Errorf("spec %s: app %s segment %s: negative scale %d", s.Version, a.URI, g.Name, g.Scale)
			}
		}
	}
	return nil
}

// validURI mirrors the controller's URI rule: "flexnet://<owner>/<name>"
// with non-empty owner and name. (Duplicated here rather than imported:
// spec is a leaf package the controller imports.)
func validURI(uri string) error {
	const scheme = "flexnet://"
	if !strings.HasPrefix(uri, scheme) {
		return fmt.Errorf("invalid app URI %q (want flexnet://<owner>/<name>)", uri)
	}
	rest := uri[len(scheme):]
	i := strings.IndexByte(rest, '/')
	if i <= 0 || i == len(rest)-1 {
		return fmt.Errorf("invalid app URI %q (want flexnet://<owner>/<name>)", uri)
	}
	return nil
}

// normalize puts the spec in canonical order — tenants by name, apps by
// URI — so emit output and diffs are deterministic regardless of how
// the author ordered the document. Segment order is preserved: it is
// the datapath chain order and therefore semantic.
func (s *Spec) normalize() {
	slices.SortFunc(s.Tenants, func(a, b TenantSpec) int { return strings.Compare(a.Name, b.Name) })
	slices.SortFunc(s.Apps, func(a, b AppSpec) int { return strings.Compare(a.URI, b.URI) })
	for i := range s.Apps {
		if s.Apps[i].Segments == nil {
			continue
		}
		for j := range s.Apps[i].Segments {
			if s.Apps[i].Segments[j].Scale == 0 {
				s.Apps[i].Segments[j].Scale = 1
			}
		}
	}
}
