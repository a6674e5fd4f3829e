package compiler

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"flexnet/internal/errdefs"
	"flexnet/internal/flexbpf"
)

func TestPlaceSegmentPathFirst(t *testing.T) {
	targets := []Target{
		&fakeTarget{name: "s1", free: bigDemand(), pps: 1e9},
		&fakeTarget{name: "s2", free: bigDemand(), pps: 1e9},
		&fakeTarget{name: "s3", free: bigDemand(), pps: 1e9},
	}
	seg := segment("r", 1000)

	// Path devices win over fabric order, and the scan stops at first fit.
	dev, scanned, err := PlaceSegment(seg, targets, []string{"s2"}, nil)
	if err != nil || dev != "s2" || scanned != 1 {
		t.Fatalf("path-first: dev=%s scanned=%d err=%v, want s2/1/nil", dev, scanned, err)
	}

	// No path: fabric order, first fit.
	dev, scanned, err = PlaceSegment(seg, targets, nil, nil)
	if err != nil || dev != "s1" || scanned != 1 {
		t.Fatalf("fabric order: dev=%s scanned=%d err=%v, want s1/1/nil", dev, scanned, err)
	}

	// Excluded devices are scanned (the cost model counts the look) but
	// never chosen; a path device already excluded falls through to the
	// fabric without being retried.
	dev, scanned, err = PlaceSegment(seg, targets, []string{"s2"}, map[string]bool{"s2": true, "s1": true})
	if err != nil || dev != "s3" || scanned != 3 {
		t.Fatalf("exclude: dev=%s scanned=%d err=%v, want s3/3/nil", dev, scanned, err)
	}
}

func TestPlaceSegmentInsufficientResources(t *testing.T) {
	targets := []Target{
		&fakeTarget{name: "s1", free: flexbpf.Demand{SRAMBits: 16}, pps: 1e9},
		&fakeTarget{name: "s2", free: flexbpf.Demand{SRAMBits: 16}, pps: 1e9},
	}
	_, scanned, err := PlaceSegment(segment("big", 1<<18), targets, nil, nil)
	if !errors.Is(err, errdefs.ErrInsufficientResources) {
		t.Fatalf("err = %v, want ErrInsufficientResources", err)
	}
	if scanned != 2 {
		t.Fatalf("scanned = %d, want every target examined before failing", scanned)
	}
}

func TestRecompileFallbackMatchesFullCompile(t *testing.T) {
	// The added segment does not fit any target's free space as-is, but
	// reclaiming a removable program frees enough: the incremental pass
	// must fall back to a full compile (which garbage-collects) rather
	// than fail.
	seg := segment("b", 1<<18)
	need := flexbpf.ProgramDemand(seg)
	mk := func() *fakeTarget {
		return &fakeTarget{
			name: "sw", pps: 1e9,
			free:      flexbpf.Demand{SRAMBits: need.SRAMBits * 9 / 10, TCAMBits: 1 << 12, ALUs: 64, Tables: 4, ParserStates: 8},
			removable: map[string]flexbpf.Demand{"stale": {SRAMBits: need.SRAMBits / 4}},
		}
	}
	c := New(StrategyFungible)
	old := dp("d", segment("a", 100))
	tgt := mk()
	prev, err := c.Compile(old, []Target{tgt}, nil)
	if err != nil {
		t.Fatal(err)
	}
	new := dp("d", segment("a", 100), seg)
	inc, err := c.Recompile(prev, old, new, []Target{tgt}, nil)
	if err != nil {
		t.Fatalf("recompile fallback: %v", err)
	}
	// Fallback output: everything appears in Place, extra iteration
	// counted, and the scan bill includes both the failed incremental
	// probe and the full compile's work.
	if len(inc.Place) != 2 || len(inc.Keep) != 0 {
		t.Fatalf("fallback shape: place=%v keep=%v", inc.Place, inc.Keep)
	}
	if inc.Iterations < 2 {
		t.Fatalf("iterations = %d, want >= 2 (incremental round + full rounds)", inc.Iterations)
	}
	if inc.TargetsScanned < 2 {
		t.Fatalf("scanned = %d, want incremental probe + full compile scans", inc.TargetsScanned)
	}
	// The fallback's assignments equal a from-scratch full compile of the
	// same datapath on an identical target.
	full, err := New(StrategyFungible).Compile(new, []Target{mk()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(inc.Place) != fmt.Sprint(full.Assignments) {
		t.Fatalf("fallback placement %v differs from full compile %v", inc.Place, full.Assignments)
	}
}

func TestRecompileFallbackCountsMoves(t *testing.T) {
	// Force the fallback where the full compile lands a previously-placed
	// segment on a different device: moves must be reported so the
	// controller can refuse in-place updates that would secretly migrate.
	segA := segment("a", 1<<17)
	needA := flexbpf.ProgramDemand(segA)
	grown := segment("a", 1<<19)
	small := &fakeTarget{name: "s1", pps: 1e9,
		free: flexbpf.Demand{SRAMBits: needA.SRAMBits + 64, TCAMBits: 1 << 12, ALUs: 64, Tables: 4, ParserStates: 8}}
	big := &fakeTarget{name: "s2", pps: 1e9, free: bigDemand()}
	c := New(StrategyBinPack)
	old := dp("d", segA)
	prev, err := c.Compile(old, []Target{small, big}, []string{"s1"})
	if err != nil {
		t.Fatal(err)
	}
	if prev.DeviceFor("a") != "s1" {
		t.Fatalf("setup: a on %s, want s1", prev.DeviceFor("a"))
	}
	inc, err := c.Recompile(prev, old, dp("d", grown), []Target{small, big}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Moves != 1 {
		t.Fatalf("moves = %d, want 1 (grown segment relocated)", inc.Moves)
	}
	if got := incDeviceFor(inc, "a"); got != "s2" {
		t.Fatalf("a placed on %s, want s2", got)
	}
	if inc.EntriesMigrated == 0 {
		t.Fatal("relocation reported zero migrated entries")
	}
}

func incDeviceFor(inc *IncrementalPlan, seg string) string {
	for _, a := range inc.Place {
		if a.Segment == seg {
			return a.Device
		}
	}
	for _, a := range inc.Keep {
		if a.Segment == seg {
			return a.Device
		}
	}
	return ""
}

func TestRefundTargetRestoresHeadroom(t *testing.T) {
	// A device already hosting the app looks full to a plain recompute;
	// refunding the app's own demand must make the same placement valid
	// again — the full-baseline path depends on this to reproduce
	// placements instead of erroring out.
	seg := segment("a", 1<<18)
	need := flexbpf.ProgramDemand(seg)
	occupied := &fakeTarget{name: "s1", pps: 1e9,
		free: flexbpf.Demand{TCAMBits: 1 << 12, ALUs: 64, Tables: 2, ParserStates: 8}} // SRAM exhausted by the live replica
	if occupied.CanHost(seg) {
		t.Fatal("setup: occupied device unexpectedly hosts the segment")
	}
	rt := &RefundTarget{Target: occupied, Refund: need}
	if !rt.CanHost(seg) {
		t.Fatal("refunded device refuses its own app's demand")
	}
	if got := rt.Free().SRAMBits; got != need.SRAMBits {
		t.Fatalf("refunded free SRAM = %d, want %d", got, need.SRAMBits)
	}
	// Full recompute over the refunded view reproduces the placement.
	plan, err := New(StrategyBinPack).Compile(dp("d", seg), []Target{rt}, nil)
	if err != nil {
		t.Fatalf("refunded recompute: %v", err)
	}
	if plan.DeviceFor("a") != "s1" {
		t.Fatalf("refunded recompute placed a on %s, want s1", plan.DeviceFor("a"))
	}
}

// TestRecompileNeverMovesUntouchedProperty is the §13.1 contract as a
// property: across randomized datapath edits (grow, shrink, add, remove)
// with enough headroom that no fallback is needed, a segment the edit
// did not touch keeps exactly the device the previous plan gave it.
func TestRecompileNeverMovesUntouchedProperty(t *testing.T) {
	rnd := rand.New(rand.NewSource(18))
	c := New(StrategyBinPack)
	for trial := 0; trial < 200; trial++ {
		targets := []Target{
			&fakeTarget{name: "s1", free: bigDemand(), pps: 1e9},
			&fakeTarget{name: "s2", free: bigDemand(), pps: 1e9},
			&fakeTarget{name: "s3", free: bigDemand(), pps: 1e9},
		}
		n := 2 + rnd.Intn(4)
		sizes := map[string]int{}
		var oldSegs []*flexbpf.Program
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("g%d", i)
			sizes[name] = 1000 + rnd.Intn(7000)
			oldSegs = append(oldSegs, segment(name, sizes[name]))
		}
		old := dp("d", oldSegs...)
		prev, err := c.Compile(old, targets, nil)
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}

		touched := map[string]bool{}
		newSegs := append([]*flexbpf.Program(nil), oldSegs...)
		switch rnd.Intn(4) {
		case 0: // grow one segment
			i := rnd.Intn(n)
			name := oldSegs[i].Name
			touched[name] = true
			newSegs[i] = segment(name, sizes[name]*2)
		case 1: // shrink one segment
			i := rnd.Intn(n)
			name := oldSegs[i].Name
			touched[name] = true
			newSegs[i] = segment(name, sizes[name]/2)
		case 2: // add a segment
			touched["gx"] = true
			newSegs = append(newSegs, segment("gx", 1000+rnd.Intn(7000)))
		case 3: // remove a segment
			i := rnd.Intn(n)
			touched[oldSegs[i].Name] = true
			newSegs = append(newSegs[:i], newSegs[i+1:]...)
		}
		new := dp("d", newSegs...)
		inc, err := c.Recompile(prev, old, new, targets, nil)
		if err != nil {
			t.Fatalf("trial %d: recompile: %v", trial, err)
		}
		if inc.Moves != 0 {
			t.Fatalf("trial %d: %d untouched-capacity moves (touched %v)", trial, inc.Moves, touched)
		}
		kept := map[string]string{}
		for _, a := range inc.Keep {
			kept[a.Segment] = a.Device
		}
		for _, s := range newSegs {
			if touched[s.Name] {
				continue
			}
			want := prev.DeviceFor(s.Name)
			if got, ok := kept[s.Name]; !ok || got != want {
				t.Fatalf("trial %d: untouched segment %s moved %s -> %s (keep=%v place=%v)",
					trial, s.Name, want, got, inc.Keep, inc.Place)
			}
		}
	}
}
