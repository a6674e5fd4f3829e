package dataplane

import (
	"fmt"
	"math/rand"
	"testing"

	"flexnet/internal/flexbpf"
)

// randomProgram builds a random (but valid) program mixing tables, maps,
// counters, and compute.
func randomProgram(r *rand.Rand, name string) *flexbpf.Program {
	b := flexbpf.NewProgram(name).
		Action("act", 1, flexbpf.NewAsm().LdParam(0, 0).Forward(0).MustBuild())
	nTables := 1 + r.Intn(3)
	for i := 0; i < nTables; i++ {
		kind := flexbpf.MatchExact
		if r.Intn(3) == 0 {
			kind = flexbpf.MatchTernary
		}
		tn := fmt.Sprintf("%s_t%d", name, i)
		b.Table(&flexbpf.TableSpec{
			Name:    tn,
			Keys:    []flexbpf.TableKey{{Field: "ipv4.dst", Kind: kind, Bits: 32}},
			Actions: []string{"act"},
			Size:    1 + r.Intn(256),
		}).Apply(tn)
	}
	if r.Intn(2) == 0 {
		b.HashMap(name+"_m", 1+r.Intn(512), 32)
	}
	if r.Intn(2) == 0 {
		b.Counter(name+"_c", 1+r.Intn(64))
	}
	return b.MustBuild()
}

// TestResourceConservationProperty: for any random install/remove
// sequence on any architecture, (capacity - free) equals the sum of
// installed demands as the model accounts them, free components never go
// negative, and removing everything restores the initial free state.
func TestResourceConservationProperty(t *testing.T) {
	for _, arch := range []Arch{ArchRMT, ArchDRMT, ArchTile, ArchElasticPipe, ArchSoC, ArchHost} {
		arch := arch
		t.Run(arch.String(), func(t *testing.T) {
			r := rand.New(rand.NewSource(31))
			for trial := 0; trial < 10; trial++ {
				d := MustNew(DefaultConfig("sw", arch))
				initial := d.Free()
				installed := map[string]bool{}
				next := 0
				for step := 0; step < 60; step++ {
					if r.Intn(2) == 0 || len(installed) == 0 {
						name := fmt.Sprintf("p%d", next)
						next++
						if err := d.InstallProgram(randomProgram(r, name)); err == nil {
							installed[name] = true
						}
					} else {
						// Remove a random installed program.
						for name := range installed {
							if err := d.RemoveProgram(name); err != nil {
								t.Fatalf("remove %s: %v", name, err)
							}
							delete(installed, name)
							break
						}
					}
					f := d.Free()
					if f.SRAMBits < 0 || f.TCAMBits < 0 || f.ALUs < 0 || f.Tables < 0 || f.ParserStates < 0 {
						t.Fatalf("free went negative: %v", f)
					}
					if !f.Fits(d.Capacity()) {
						t.Fatalf("free %v exceeds capacity %v", f, d.Capacity())
					}
				}
				for name := range installed {
					if err := d.RemoveProgram(name); err != nil {
						t.Fatalf("final remove %s: %v", name, err)
					}
				}
				if d.Free() != initial {
					t.Fatalf("trial %d: resources leaked: %v != %v", trial, d.Free(), initial)
				}
			}
		})
	}
}

// TestRMTChainLengthProperty: a dependency chain of n tables places on
// an s-stage RMT iff n <= s (with one table slot per stage).
func TestRMTChainLengthProperty(t *testing.T) {
	mkChain := func(n int) *flexbpf.Program {
		b := flexbpf.NewProgram("chain").
			Action("a", 0, flexbpf.NewAsm().Ret().MustBuild())
		for i := 0; i < n; i++ {
			tn := fmt.Sprintf("t%02d", i)
			b.Table(&flexbpf.TableSpec{
				Name:    tn,
				Keys:    []flexbpf.TableKey{{Field: "ipv4.dst", Kind: flexbpf.MatchExact, Bits: 32}},
				Actions: []string{"a"},
				Size:    4,
			}).Apply(tn)
		}
		return b.MustBuild()
	}
	for stages := 2; stages <= 6; stages++ {
		for n := 1; n <= 8; n++ {
			cfg := DefaultConfig("sw", ArchRMT)
			cfg.Stages = stages
			cfg.StageTables = 1
			d := MustNew(cfg)
			err := d.InstallProgram(mkChain(n))
			if n <= stages && err != nil {
				t.Fatalf("chain %d on %d stages refused: %v", n, stages, err)
			}
			if n > stages && err == nil {
				t.Fatalf("chain %d placed on %d stages", n, stages)
			}
		}
	}
}

// TestRMTCrossStageAblation: RMT's per-stage budgets are fixed, so a
// fragmented pipeline refuses a table that no single stage fits even
// though the pipeline as a whole has room for it several times over.
func TestRMTCrossStageAblation(t *testing.T) {
	cfg := DefaultConfig("sw", ArchRMT)
	cfg.Stages = 4
	cfg.StageTables = 4
	d := MustNew(cfg)
	single := func(name string, size int) *flexbpf.Program {
		return flexbpf.NewProgram(name).
			Action("a", 0, flexbpf.NewAsm().Ret().MustBuild()).
			Table(&flexbpf.TableSpec{
				Name:    name + "_t",
				Keys:    []flexbpf.TableKey{{Field: "ipv4.dst", Kind: flexbpf.MatchExact, Bits: 32}},
				Actions: []string{"a"},
				Size:    size,
			}).
			Apply(name + "_t").
			MustBuild()
	}
	// First-fit puts two 40% fragments in each stage; removing every
	// other one leaves each stage 60% free: 240% of a stage free in
	// total, but no stage can host a 70% table.
	frag := cfg.StageSRAMBits * 40 / 100 / 64 // 64 bits per entry (32b key + overhead)
	for i := 0; i < 8; i++ {
		if err := d.InstallProgram(single(fmt.Sprintf("frag%d", i), frag)); err != nil {
			t.Fatalf("setup install %d: %v", i, err)
		}
	}
	for i := 0; i < 8; i += 2 {
		if err := d.RemoveProgram(fmt.Sprintf("frag%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.InstallProgram(single("newcomer", cfg.StageSRAMBits*70/100/64)); err == nil {
		t.Fatal("rigid RMT placed an oversized table into fragmented stages")
	}
}
