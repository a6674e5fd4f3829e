package compiler

import (
	"testing"

	"flexnet/internal/apps"
	"flexnet/internal/flexbpf"
)

func TestFingerprintIgnoresIdentity(t *testing.T) {
	a := apps.SYNDefense("sd", 512, 5)
	b := apps.SYNDefense("sd", 512, 5)
	b.Owner = "tenant-b"
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("identical structure, different owner → different fingerprint")
	}
	// Different parameters are structurally different programs.
	c := apps.SYNDefense("sd", 1024, 5)
	if Fingerprint(a) == Fingerprint(c) {
		t.Fatal("different map size collided")
	}
	d := apps.SYNDefense("sd", 512, 9)
	if Fingerprint(a) == Fingerprint(d) {
		t.Fatal("different threshold collided")
	}
}

func TestFingerprintNormalizesNamePrefix(t *testing.T) {
	// The same app generated under two different instance names shares a
	// fingerprint (element names are prefixed by the program name).
	a := apps.HeavyHitter("mon1", 2, 128, 100)
	b := apps.HeavyHitter("mon2", 2, 128, 100)
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("renamed instances of the same app do not share a fingerprint")
	}
}

func TestFingerprintSensitiveToComputeBody(t *testing.T) {
	// Two programs with identical declarations but different inline
	// compute must NOT share a fingerprint: the canonical form includes
	// the disassembled Do blocks, not just the element shapes.
	mk := func(addend uint64) *flexbpf.Program {
		return flexbpf.NewProgram("p").
			HashMap("p_m", 128, 64).
			Do(flexbpf.NewAsm().
				FlowHash(0).
				MapLoad(1, "p_m", 0).
				AddImm(1, addend).
				MapStore("p_m", 0, 1).
				Ret().
				MustBuild()).
			MustBuild()
	}
	if Fingerprint(mk(1)) == Fingerprint(mk(2)) {
		t.Fatal("programs with different compute bodies collided")
	}
	if Fingerprint(mk(1)) != Fingerprint(mk(1)) {
		t.Fatal("identical programs did not collide")
	}
}

func TestFingerprintSensitiveToTableShape(t *testing.T) {
	// Same table name and actions, different match kind: structurally
	// different hardware footprints must not canonicalize together.
	mk := func(kind flexbpf.MatchKind) *flexbpf.Program {
		deny := flexbpf.NewAsm().Drop().MustBuild()
		return flexbpf.NewProgram("p").
			Action("deny", 0, deny).
			Table(&flexbpf.TableSpec{
				Name:    "p_acl",
				Keys:    []flexbpf.TableKey{{Field: "ipv4.src", Kind: kind, Bits: 32}},
				Actions: []string{"deny"},
				Size:    64,
			}).
			Apply("p_acl").
			MustBuild()
	}
	if Fingerprint(mk(flexbpf.MatchExact)) == Fingerprint(mk(flexbpf.MatchTernary)) {
		t.Fatal("exact and ternary tables collided")
	}
}

func TestFingerprintPrefixNormalizationIsNotGlobalRename(t *testing.T) {
	// Normalization only strips the program-name prefix from element
	// names; two programs whose elements differ beyond the prefix stay
	// distinct even when the suffixes line up by accident.
	a := flexbpf.NewProgram("m1").
		HashMap("m1_flows", 128, 64).
		Do(flexbpf.NewAsm().Ret().MustBuild()).
		MustBuild()
	b := flexbpf.NewProgram("m2").
		HashMap("other_flows", 128, 64).
		Do(flexbpf.NewAsm().Ret().MustBuild()).
		MustBuild()
	if Fingerprint(a) == Fingerprint(b) {
		t.Fatal("unprefixed element name canonicalized as if prefixed")
	}
}
