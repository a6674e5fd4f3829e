package spec

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

const demoYAML = `
# Demo network: one tenant, two apps.
version: v1
tenants:
  - name: acme
apps:
  - uri: flexnet://acme/fw
    tenant: acme
    segments:
      - name: fw
        app: firewall
        args: [64, 1024, 0]
        scale: 2
  - uri: flexnet://infra/mon
    path: [s1, s2]
    segments:
      - name: int
        app: int
`

func TestLoadYAML(t *testing.T) {
	s, err := Load([]byte(demoYAML))
	if err != nil {
		t.Fatal(err)
	}
	if s.Version != "v1" || len(s.Tenants) != 1 || len(s.Apps) != 2 {
		t.Fatalf("parsed %+v", s)
	}
	// normalize sorts apps by URI: acme/fw before infra/mon.
	fw := s.Apps[0]
	if fw.URI != "flexnet://acme/fw" || fw.Tenant != "acme" {
		t.Fatalf("app[0] = %+v", fw)
	}
	if got := fw.Segments[0].Args; len(got) != 3 || got[0] != 64 || got[1] != 1024 || got[2] != 0 {
		t.Fatalf("args = %v", got)
	}
	if fw.Segments[0].Scale != 2 {
		t.Fatalf("scale = %d", fw.Segments[0].Scale)
	}
	mon := s.Apps[1]
	if mon.Tenant != "" {
		t.Fatalf("infra app tenant = %q, want empty (untenanted)", mon.Tenant)
	}
	if len(mon.Path) != 2 || mon.Path[0] != "s1" {
		t.Fatalf("path = %v", mon.Path)
	}
	if mon.Segments[0].Scale != 1 {
		t.Fatalf("default scale = %d, want 1", mon.Segments[0].Scale)
	}
}

// TestCanonicalRoundTrip is the golden-stability test: loading a spec's
// Canonical() output must yield byte-identical Canonical() output, and
// the YAML and JSON paths must canonicalize identically.
func TestCanonicalRoundTrip(t *testing.T) {
	s, err := Load([]byte(demoYAML))
	if err != nil {
		t.Fatal(err)
	}
	first := s.Canonical()
	s2, err := Load(first)
	if err != nil {
		t.Fatalf("reload canonical: %v", err)
	}
	if got := s2.Canonical(); string(got) != string(first) {
		t.Fatalf("canonical not a fixpoint:\n--- first ---\n%s--- second ---\n%s", first, got)
	}
	// Golden field names: the wire format is an API contract.
	for _, want := range []string{`"version"`, `"tenants"`, `"apps"`, `"uri"`, `"tenant"`, `"segments"`, `"name"`, `"app"`, `"args"`, `"scale"`, `"path"`} {
		if !strings.Contains(string(first), want) {
			t.Errorf("canonical output missing field %s:\n%s", want, first)
		}
	}
}

func TestLoadJSONEqualsYAML(t *testing.T) {
	s, err := Load([]byte(demoYAML))
	if err != nil {
		t.Fatal(err)
	}
	js, err := Load(s.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	if string(js.Canonical()) != string(s.Canonical()) {
		t.Fatal("JSON path and YAML path canonicalize differently")
	}
}

// loadErrors are documents Load must refuse, each with a substring of
// its error. FuzzSpecLoad starts from them too.
var loadErrors = []struct {
	name, doc, want string
}{
	{"empty", "", "empty document"},
	{"no version", "tenants:\n  - name: a", "version is required"},
	{"tabs", "version: v1\n\tapps: []", "tabs are not allowed"},
	{"unknown field", `{"version":"v1","bogus":1}`, "unknown field"},
	{"bad uri", "version: v1\napps:\n  - uri: nope\n    segments:\n      - name: x\n        app: l2", "invalid app URI"},
	{"dup tenant", "version: v1\ntenants:\n  - name: a\n  - name: a", "duplicate tenant"},
	{"undeclared tenant", "version: v1\napps:\n  - uri: flexnet://a/b\n    tenant: ghost\n    segments:\n      - name: x\n        app: l2", "undeclared tenant"},
	{"no segments", "version: v1\napps:\n  - uri: flexnet://a/b\n    segments: []", "no segments"},
	{"dup segment", "version: v1\napps:\n  - uri: flexnet://a/b\n    segments:\n      - name: x\n        app: l2\n      - name: x\n        app: l2", "duplicate segment"},
	{"negative scale", "version: v1\napps:\n  - uri: flexnet://a/b\n    segments:\n      - name: x\n        app: l2\n        scale: -1", "negative scale"},
	// One document, then anything but whitespace, is refused: a second
	// document would otherwise be dropped without a word.
	{"trailing data", `{"version":"v1"} garbage`, "offset 17: trailing data after the document"},
	{"two documents", `{"version":"v1","apps":[]}` + "\n" + `{"version":"v2"}`, "offset 27: trailing data after the document"},
	// Errors name the JSON path of the value at fault, from either
	// format.
	{"fractional scale", `{"version":"v1","apps":[{"uri":"flexnet://a/b","segments":[{"name":"x","app":"l2","scale":1.5}]}]}`,
		"apps[0].segments[0].scale: want integer, got number 1.5"},
	{"negative arg", "version: v1\napps:\n  - uri: flexnet://a/b\n    segments:\n      - name: x\n        app: l2\n        args: [-1]",
		"apps[0].segments[0].args[0]: want unsigned integer, got number -1"},
	{"string path", `{"version":"v1","apps":[{"uri":"flexnet://a/b","path":"s1"}]}`, "apps[0].path: want array, got string"},
	{"unknown nested field", `{"version":"v1","apps":[{"uri":"flexnet://a/b","segments":[{"name":"x","kind":"l2"}]}]}`,
		`apps[0].segments[0]: unknown field "kind"`},
	{"syntax", `{"version":"v1","apps":[{"uri" "flexnet://a/b"}]}`, "apps[0]: offset 31: want ':' after an object key"},
	// A field set twice would otherwise keep only its last value.
	{"duplicate field", `{"version":"v1","apps":[{"uri":"flexnet://a/b"}],"apps":[]}`, `duplicate field "apps"`},
}

func TestLoadErrors(t *testing.T) {
	for _, tc := range loadErrors {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load([]byte(tc.doc))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestResolve(t *testing.T) {
	s, err := Load([]byte(demoYAML))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Resolve(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Apps) != 2 {
		t.Fatalf("resolved %d apps", len(r.Apps))
	}
	fw := r.Apps["flexnet://acme/fw"]
	if fw == nil || len(fw.Segments) != 1 {
		t.Fatalf("fw = %+v", fw)
	}
	seg := &fw.Segments[0]
	if seg.proto == nil || seg.FP() == 0 {
		t.Fatalf("segment not resolved: %+v", seg)
	}
	// Retuning an arg must change the fingerprint; same args must not.
	s2, _ := Load([]byte(strings.Replace(demoYAML, "1024", "2048", 1)))
	r2, err := Resolve(s2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Apps["flexnet://acme/fw"].Segments[0].FP() == seg.FP() {
		t.Fatal("retuned args kept the same fingerprint")
	}
	r3, _ := Resolve(s)
	if r3.Apps["flexnet://acme/fw"].Segments[0].FP() != seg.FP() {
		t.Fatal("identical spec resolved to a different fingerprint")
	}
	// Unknown kinds fail with the known set named.
	bad, _ := Load([]byte("version: v1\napps:\n  - uri: flexnet://a/b\n    segments:\n      - name: x\n        app: nosuch"))
	if _, err := Resolve(bad); err == nil || !strings.Contains(err.Error(), "unknown builtin app") {
		t.Fatalf("err = %v", err)
	}
	// Datapath clones: mutating one datapath must not leak into the next.
	dp1, dp2 := fw.Datapath(), fw.Datapath()
	if dp1 == dp2 || dp1.Segments[0] == dp2.Segments[0] {
		t.Fatal("Datapath() did not clone")
	}
}

func TestDiffAgainstEmptyAndSelf(t *testing.T) {
	s, _ := Load([]byte(demoYAML))
	r, err := Resolve(s)
	if err != nil {
		t.Fatal(err)
	}
	empty := &Live{Apps: map[string]*LiveApp{}}
	d := Compute(r, empty)
	if d.Empty() {
		t.Fatal("diff vs empty network is empty")
	}
	if len(d.AddTenants) != 1 || len(d.Create) != 2 {
		t.Fatalf("diff = %+v", d)
	}
	// fw scale 2 => deploy + 1 scale-out; mon scale 1 => deploy; + tenant.
	if got := d.Ops(); got != 4 {
		t.Fatalf("Ops() = %d, want 4", got)
	}

	// A live state exactly matching the spec diffs to nothing.
	live := &Live{Tenants: []string{"acme"}, Apps: map[string]*LiveApp{}}
	for uri, ra := range r.Apps {
		la := &LiveApp{Tenant: ra.Tenant, Path: ra.Path, Segments: map[string]LiveSegment{}}
		for i := range ra.Segments {
			seg := &ra.Segments[i]
			devs := make([]string, seg.Scale)
			for j := range devs {
				devs[j] = "s1"
			}
			la.Segments[seg.Name] = LiveSegment{FP: seg.FP(), Replicas: devs}
		}
		live.Apps[uri] = la
	}
	if d := Compute(r, live); !d.Empty() {
		t.Fatalf("diff vs matching live state = %v", d.Summary())
	}
}

func TestDiffChangeKinds(t *testing.T) {
	s, _ := Load([]byte(demoYAML))
	r, _ := Resolve(s)
	fw := r.Apps["flexnet://acme/fw"]
	mon := r.Apps["flexnet://infra/mon"]
	live := &Live{Tenants: []string{"acme", "stale"}, Apps: map[string]*LiveApp{
		// fw live with wrong FP and too many replicas -> swap + scale-down.
		"flexnet://acme/fw": {Tenant: "acme", Segments: map[string]LiveSegment{
			"fw": {FP: fw.Segments[0].FP() + 1, Replicas: []string{"s1", "s2", "s3"}},
		}},
		// mon live on a different path -> recreate.
		"flexnet://infra/mon": {Tenant: "", Path: []string{"s9"}, Segments: map[string]LiveSegment{
			"int": {FP: mon.Segments[0].FP(), Replicas: []string{"s9"}},
		}},
		// An app not in the spec -> delete.
		"flexnet://old/gone": {Tenant: "acme", Segments: map[string]LiveSegment{
			"x": {FP: 1, Replicas: []string{"s1"}},
		}},
	}}
	d := Compute(r, live)
	if len(d.RemoveTenants) != 1 || d.RemoveTenants[0] != "stale" {
		t.Fatalf("RemoveTenants = %v", d.RemoveTenants)
	}
	if len(d.Swap) != 1 || d.Swap[0].Segment != "fw" || len(d.Swap[0].Replicas) != 3 {
		t.Fatalf("Swap = %+v", d.Swap)
	}
	if len(d.ScaleDown) != 1 || d.ScaleDown[0].Delta != -1 {
		t.Fatalf("ScaleDown = %+v", d.ScaleDown)
	}
	// Victims vacate newest-first, never the primary.
	if v := d.ScaleDown[0].Victims; len(v) != 1 || v[0] != "s3" {
		t.Fatalf("Victims = %v", v)
	}
	if len(d.Recreate) != 1 || d.Recreate[0] != "flexnet://infra/mon" {
		t.Fatalf("Recreate = %v", d.Recreate)
	}
	found := false
	for _, uri := range d.Delete {
		if uri == "flexnet://old/gone" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Delete = %v missing removed app", d.Delete)
	}
	// Summary is deterministic and mentions every change class.
	sum := strings.Join(d.Summary(), "\n")
	for _, want := range []string{"- tenant stale", "~ swap", "~ scale", "recreate", "- app flexnet://old/gone"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}

// TestLoadPinsNoDocument: the strings of a loaded spec outlive it — an
// app URI, a program name, the version in an audit record — so none
// may be a window into the document, which would keep all of it alive.
func TestLoadPinsNoDocument(t *testing.T) {
	const docs, pad = 16, 1 << 20
	var kept []string
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < docs; i++ {
		doc := fmt.Sprintf(`{"version":"v%d",%s"apps":[]}`, i, strings.Repeat(" ", pad))
		s, err := Load([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, s.Version)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > docs*pad/4 {
		t.Fatalf("keeping %d versions keeps %d bytes of heap; %d documents of %d bytes were loaded", len(kept), grown, docs, pad)
	}
	runtime.KeepAlive(kept)
}
