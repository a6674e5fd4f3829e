package spec

import (
	"fmt"
	"sync"
	"testing"

	"flexnet/internal/apps"
	"flexnet/internal/compiler"
	"flexnet/internal/flexbpf"
)

// stormSpec is a spec of n single-segment apps over the six builtin
// kinds — the shape of the document the control-plane storm resolves.
func stormSpec(n int) *Spec {
	kinds := []struct {
		app, seg string
		args     []uint64
	}{
		{"heavy-hitter", "hh", []uint64{2, 128, 1000}},
		{"firewall", "fw", []uint64{64, 1024, 0}},
		{"syn-defense", "syn", []uint64{512, 10}},
		{"rate-limiter", "rl", nil},
		{"l2", "l2", []uint64{256}},
		{"int", "int", []uint64{7}},
	}
	s := &Spec{Version: "storm"}
	for i := 0; i < n; i++ {
		k := kinds[i%len(kinds)]
		s.Apps = append(s.Apps, AppSpec{
			URI:      fmt.Sprintf("flexnet://infra/app%d", i),
			Segments: []SegmentSpec{{Name: k.seg, App: k.app, Args: k.args}},
		})
	}
	return s
}

// scribble edits every part of p a caller could reach.
func scribble(p *flexbpf.Program) {
	p.Name = "scribbled"
	p.RequiredHeaders = append(p.RequiredHeaders, "vlan")
	for _, m := range p.Maps {
		m.MaxEntries += 17
	}
	for _, t := range p.Tables {
		t.Size += 17
	}
	for _, a := range p.Actions {
		a.Body = nil
	}
	p.Pipeline = nil
}

// TestResolveMemoIsolation attacks the builtin memo through everything
// Resolve hands out: a program edited by one caller must not change what
// the next Resolve returns, which must be what apps.Builtin builds.
func TestResolveMemoIsolation(t *testing.T) {
	s := stormSpec(6)
	want := map[string]string{}
	fps := map[string]uint64{}
	for _, a := range s.Apps {
		g := a.Segments[0]
		p, err := apps.Builtin(g.App, g.Name, g.Args)
		if err != nil {
			t.Fatal(err)
		}
		want[a.URI], fps[a.URI] = flexbpf.Dump(p), compiler.Fingerprint(p)
	}
	check := func(stage string) *Resolved {
		t.Helper()
		r, err := Resolve(s)
		if err != nil {
			t.Fatal(err)
		}
		for uri, ra := range r.Apps {
			seg := &ra.Segments[0]
			if seg.FP() != fps[uri] || compiler.Fingerprint(seg.Program()) != fps[uri] {
				t.Fatalf("%s: %s fingerprint %x (program %x), want %x", stage, uri, seg.FP(), compiler.Fingerprint(seg.Program()), fps[uri])
			}
			if got := flexbpf.Dump(seg.Program()); got != want[uri] {
				t.Fatalf("%s: %s resolved to\n%s\nwant\n%s", stage, uri, got, want[uri])
			}
		}
		return r
	}
	r := check("cold")
	for _, ra := range r.Apps {
		scribble(ra.Datapath().Segments[0])
	}
	r = check("after editing Datapath() programs")
	for _, ra := range r.Apps {
		scribble(ra.Segments[0].Program())
	}
	r2 := check("after editing resolved segment programs")
	for uri, ra := range r2.Apps {
		seg := &ra.Segments[0]
		if p := seg.Program(); p == seg.Program() || p == r.Apps[uri].Segments[0].Program() {
			t.Fatalf("%s: one program handed out twice", uri)
		}
	}
}

// TestResolveMemoBounded resolves ten times the bound in distinct arg
// tuples: the memo never exceeds the bound and every answer stays right.
func TestResolveMemoBounded(t *testing.T) {
	for i := 0; i < 10*builtinMemoBound; i++ {
		args := []uint64{uint64(i + 1)}
		prog, fp, err := resolveBuiltin("int", "probe", args)
		if err != nil {
			t.Fatal(err)
		}
		if i%97 == 0 {
			fresh, _ := apps.Builtin("int", "probe", args)
			if fp != compiler.Fingerprint(fresh) || flexbpf.Dump(prog) != flexbpf.Dump(fresh) {
				t.Fatalf("tuple %d resolved wrong", i)
			}
		}
		builtinMemo.Lock()
		n := len(builtinMemo.m)
		builtinMemo.Unlock()
		if n > builtinMemoBound {
			t.Fatalf("memo holds %d entries after %d tuples, bound %d", n, i+1, builtinMemoBound)
		}
	}
	// Tuples that differ only in where one field ends must not collide.
	a, _, _ := resolveBuiltin("int", "ab", []uint64{1})
	b, _, _ := resolveBuiltin("int", "a", []uint64{1})
	if a.Name != "ab" || b.Name != "a" {
		t.Fatalf("key collision: got programs %q and %q", a.Name, b.Name)
	}
}

// countFingerprints counts, until the test ends, the calls through the
// package's one compiler.Fingerprint call site.
func countFingerprints(t *testing.T) *int {
	n := new(int)
	orig := fingerprint
	fingerprint = func(p *flexbpf.Program) uint64 { *n++; return orig(p) }
	t.Cleanup(func() { fingerprint = orig })
	return n
}

// TestResolveWarmAllocs: a cold Resolve fingerprints each distinct
// (kind, name, args) tuple once; a warm one fingerprints no segment and
// copies no program — it allocates less than half of what one Program
// clone per segment would cost.
func TestResolveWarmAllocs(t *testing.T) {
	calls := countFingerprints(t)
	builtinMemo.Lock()
	builtinMemo.m = map[string]builtinProto{}
	builtinMemo.Unlock()
	s := stormSpec(70)
	if _, err := Resolve(s); err != nil {
		t.Fatal(err)
	}
	if *calls != 6 {
		t.Fatalf("cold Resolve of six distinct tuples fingerprinted %d programs", *calls)
	}
	var perClone float64
	for _, a := range s.Apps[:6] {
		g := a.Segments[0]
		p, _, _ := resolveBuiltin(g.App, g.Name, g.Args)
		perClone += testing.AllocsPerRun(5, func() { p.Clone() })
	}
	cloneAll := perClone / 6 * 70
	*calls = 0
	got := testing.AllocsPerRun(5, func() {
		if _, err := Resolve(s); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm Resolve: %.0f allocs, %d fingerprints; one Clone per segment: %.0f allocs", got, *calls, cloneAll)
	if *calls != 0 {
		t.Fatalf("warm Resolve of 70 apps fingerprinted %d segments — the memo is not being hit", *calls)
	}
	if got >= cloneAll/2 {
		t.Fatalf("warm Resolve of 70 apps allocates %.0f times; a Clone per segment is %.0f — Resolve copies programs", got, cloneAll)
	}
}

// TestResolveConcurrent resolves overlapping specs from several
// goroutines (run under -race): the memo is shared by every caller in
// the process.
func TestResolveConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				s := stormSpec(12 + g)
				s.Apps[0].Segments[0].Args = []uint64{2, uint64(64 << (i % 3)), 1000}
				r, err := Resolve(s)
				if err != nil {
					t.Error(err)
					return
				}
				for _, ra := range r.Apps {
					scribble(ra.Segments[0].Program())
				}
			}
		}()
	}
	wg.Wait()
}
