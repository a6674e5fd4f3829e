package compiler

import (
	"sort"
	"strings"
	"testing"

	"flexnet/internal/apps"
	"flexnet/internal/flexbpf"
)

func TestFingerprintIgnoresIdentity(t *testing.T) {
	a := apps.SYNDefense("sd", 512, 5)
	b := apps.SYNDefense("sd", 512, 5)
	if a == b || Fingerprint(a) != Fingerprint(b) {
		t.Fatal("two programs built with identical structure → different fingerprints")
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

// textFingerprint is the fingerprint as a text hash: the program's
// Dump without its identity line, plus the full disassembly of every
// inline block, with the program name followed by '_' or '.' replaced
// throughout. It is the oracle Fingerprint's IR hash is checked
// against.
func textFingerprint(p *flexbpf.Program) uint64 {
	lines := strings.Split(flexbpf.Dump(p), "\n")
	if len(lines) > 0 {
		lines = lines[1:] // drop "program <name> (tenant ...)"
	}
	var blocks strings.Builder
	var walk func(stmts []flexbpf.Stmt)
	walk = func(stmts []flexbpf.Stmt) {
		for _, s := range stmts {
			if s.Do != nil {
				blocks.WriteString(flexbpf.Disasm(s.Do))
			}
			if s.If != nil {
				walk(s.If.Then)
				walk(s.If.Else)
			}
		}
	}
	walk(p.Pipeline)
	canon := strings.Join(lines, "\n") + blocks.String()
	if p.Name != "" {
		canon = strings.ReplaceAll(canon, p.Name+"_", "§_")
		canon = strings.ReplaceAll(canon, p.Name+".", "§.")
	}
	h := uint64(fpOffset)
	for i := 0; i < len(canon); i++ {
		h ^= uint64(canon[i])
		h *= fpPrime
	}
	return h
}

// builtinGrid builds every builtin kind under each of two segment names
// over a grid of argument vectors: each parameter at its default and at
// a few other values, skipping vectors the kind refuses.
func builtinGrid(t *testing.T) []*flexbpf.Program {
	t.Helper()
	values := []uint64{1, 2, 64, 1000, 2_000_000}
	var progs []*flexbpf.Program
	kinds := apps.BuiltinKinds()
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, kind := range names {
		// "summary (args: a=1, b=2)": one default per parameter.
		_, list, _ := strings.Cut(kinds[kind], "(args: ")
		params := strings.Split(strings.TrimSuffix(list, ")"), ", ")
		grid := [][]uint64{nil}
		for range params {
			var next [][]uint64
			for _, prefix := range grid {
				for _, v := range values {
					next = append(next, append(append([]uint64(nil), prefix...), v))
				}
			}
			grid = append([][]uint64{nil}, next...)
		}
		for _, seg := range []string{"hh", "seg"} {
			for _, args := range grid {
				p, err := apps.Builtin(kind, seg, args)
				if err != nil {
					continue
				}
				progs = append(progs, p)
			}
		}
	}
	if len(progs) < 500 {
		t.Fatalf("grid built only %d programs", len(progs))
	}
	return progs
}

// TestFingerprintMatchesTextOracle: over every builtin kind, a grid of
// arguments and two segment names, two programs share an IR fingerprint
// exactly when they share a text fingerprint.
func TestFingerprintMatchesTextOracle(t *testing.T) {
	progs := builtinGrid(t)
	ir := make([]uint64, len(progs))
	text := make([]uint64, len(progs))
	for i, p := range progs {
		ir[i], text[i] = Fingerprint(p), textFingerprint(p)
	}
	equal := 0
	for i := range progs {
		for j := i + 1; j < len(progs); j++ {
			if (ir[i] == ir[j]) != (text[i] == text[j]) {
				t.Fatalf("%s vs %s: IR fingerprints equal %v, text fingerprints equal %v\n%s\n%s",
					progs[i].Name, progs[j].Name, ir[i] == ir[j], text[i] == text[j], flexbpf.Dump(progs[i]), flexbpf.Dump(progs[j]))
			}
			if ir[i] == ir[j] {
				equal++
			}
		}
	}
	if equal == 0 {
		t.Fatal("no two programs in the grid share a fingerprint; the renamed copies should")
	}
	t.Logf("%d programs, %d equal pairs", len(progs), equal)
}

// TestFingerprintCoversWhatTextOmits: fields the text render never
// printed are structure too.
func TestFingerprintCoversWhatTextOmits(t *testing.T) {
	base := func() *flexbpf.Program { return apps.RateLimiter("rl", 8, 1000, 2000) }
	edits := map[string]func(p *flexbpf.Program){
		"key bits":       func(p *flexbpf.Program) { p.Tables[0].Keys[0].Bits = 24 },
		"default params": func(p *flexbpf.Program) { p.Tables[0].DefaultParams = []uint64{3} },
		"meter CBS":      func(p *flexbpf.Program) { p.Meters[0].CBS++ },
		"meter PBS":      func(p *flexbpf.Program) { p.Meters[0].PBS++ },
		"unused operand": func(p *flexbpf.Program) { p.Actions["rl_setclass"].Body[0].Off = 5 },
	}
	want := Fingerprint(base())
	for what, edit := range edits {
		p := base()
		edit(p)
		if textFingerprint(p) != textFingerprint(base()) {
			t.Fatalf("%s: the text render prints it after all", what)
		}
		if Fingerprint(p) == want {
			t.Errorf("%s: changing it kept the fingerprint", what)
		}
	}
}
