package controller

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"flexnet/internal/apps"
	"flexnet/internal/compiler"
	"flexnet/internal/fabric"
	"flexnet/internal/flexbpf"
	"flexnet/internal/flexbpf/delta"
	"flexnet/internal/plan"
	"flexnet/internal/spec"
)

// These tests attack the live-segment fingerprint memo (liveFP,
// DESIGN.md §14.2): whatever sequence of operations ran, what the
// controller remembers must be what compiler.Fingerprint computes from
// scratch, and the diff built on it must be the diff built without it.

// fatTreeBed builds a k-ary fat-tree with a controller on it.
func fatTreeBed(t testing.TB, seed int64, k int) (*fabric.Fabric, *Controller) {
	t.Helper()
	f := fabric.New(seed)
	if err := fabric.BuildFatTree(f, fabric.FatTreeSpec{K: k, HostsPerEdge: 1}); err != nil {
		t.Fatal(err)
	}
	return f, New(f)
}

// await runs the simulator until op's completion callback has fired and
// returns the error it reported.
func await(t testing.TB, f *fabric.Fabric, op func(done func(error))) error {
	t.Helper()
	var err error
	settled := false
	op(func(e error) { err, settled = e, true })
	for i := 0; i < 200 && !settled; i++ {
		f.Sim.RunFor(100 * time.Millisecond)
	}
	if !settled {
		t.Fatal("control-plane op never completed")
	}
	return err
}

func applySpec(t testing.TB, f *fabric.Fabric, c *Controller, r *spec.Resolved) (*SpecReport, error) {
	t.Helper()
	var rep *SpecReport
	err := await(t, f, func(done func(error)) {
		c.ApplySpec(context.Background(), r, SpecOptions{}, func(sr *SpecReport, e error) { rep = sr; done(e) })
	})
	return rep, err
}

// freshLive is LiveSpecState with every fingerprint recomputed from the
// live program, never read from the memo.
func freshLive(c *Controller) *spec.Live {
	live := &spec.Live{Tenants: c.state.tenantNames(), Apps: map[string]*spec.LiveApp{}}
	for _, uri := range c.Apps() {
		app := c.App(uri)
		la := &spec.LiveApp{Tenant: app.Tenant, Path: append([]string(nil), app.Path...), Segments: map[string]spec.LiveSegment{}}
		for seg, devs := range app.Replicas {
			var fp uint64
			if p := app.Datapath.Segment(seg); p != nil {
				fp = compiler.Fingerprint(p)
			}
			la.Segments[seg] = spec.LiveSegment{FP: fp, Replicas: append([]string(nil), devs...)}
		}
		live.Apps[uri] = la
	}
	return live
}

// hhResize is a delta that retunes a heavy-hitter segment named "hh".
func hhResize(entries int) *delta.Delta {
	return &delta.Delta{Name: fmt.Sprintf("resize-%d", entries), Ops: []delta.Op{
		{RemoveMaps: "hh_seen"},
		{AddMap: &flexbpf.MapSpec{Name: "hh_seen", Kind: flexbpf.MapHash, MaxEntries: entries, ValueBits: 1, Shared: true}},
	}}
}

// memoSequence drives nOps seeded random operations — deploy, update,
// scale, migrate, redeploy, remove, and applies of two alternating spec
// revisions — on f, a k=4 fat-tree bed, checking the memo after every
// one. It returns the first violation. With mutant set, the memo is read
// after each operation as an implementation that remembered by segment
// name alone would read it: every entry counts as current whatever
// program its segment now holds.
func memoSequence(t *testing.T, f *fabric.Fabric, c *Controller, seed int64, nOps int, mutant bool) error {
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	devices := f.Devices()

	// The spec side: four declared apps whose table size and replica
	// count depend on the revision, plus every imperative app as it was
	// deployed (a spec names the whole network; applying one deletes
	// what it leaves out and swaps back what an update retuned).
	type deployed struct {
		uri  string
		path []string
		cols uint64
	}
	var imperative []deployed
	resolve := func(rev int) *spec.Resolved {
		s := &spec.Spec{Version: fmt.Sprintf("rev-%d", rev)}
		for i := 0; i < 4; i++ {
			s.Apps = append(s.Apps, spec.AppSpec{
				URI:  fmt.Sprintf("flexnet://infra/declared%d", i),
				Path: []string{fmt.Sprintf("p%d-e0", i), fmt.Sprintf("p%d-e1", i)},
				Segments: []spec.SegmentSpec{{
					Name: "hh", App: "heavy-hitter", Args: []uint64{2, uint64(128 << rev), 1000}, Scale: 1 + rev,
				}},
			})
		}
		for _, a := range imperative {
			if c.App(a.uri) == nil {
				continue
			}
			s.Apps = append(s.Apps, spec.AppSpec{
				URI: a.uri, Path: a.path,
				Segments: []spec.SegmentSpec{{Name: "hh", App: "heavy-hitter", Args: []uint64{2, a.cols, 1000}, Scale: len(c.App(a.uri).Replicas["hh"])}},
			})
		}
		r, err := spec.Resolve(s)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	check := func(op string) error {
		if mutant {
			for _, uri := range c.Apps() {
				app := c.App(uri)
				for seg, m := range app.fps {
					m.prog = app.Datapath.Segment(seg)
					app.fps[seg] = m
				}
			}
		}
		fresh := freshLive(c)
		if got := c.LiveSpecState(); !reflect.DeepEqual(got, fresh) {
			for uri, la := range fresh.Apps {
				for seg, ls := range la.Segments {
					if g := got.Apps[uri].Segments[seg]; g.FP != ls.FP {
						return fmt.Errorf("after %s: %s#%s remembered fingerprint %x, recomputed %x", op, uri, seg, g.FP, ls.FP)
					}
				}
			}
			return fmt.Errorf("after %s: LiveSpecState differs from a freshly fingerprinted one", op)
		}
		for rev := 0; rev < 2; rev++ {
			r := resolve(rev)
			if got, want := c.DiffSpec(r), spec.Compute(r, fresh); !reflect.DeepEqual(got, want) {
				return fmt.Errorf("after %s: DiffSpec(rev-%d) = %v, want %v", op, rev, got.Summary(), want.Summary())
			}
		}
		// The devices hold exactly the committed intent, and the audit
		// trail replays to it: what a lowering the imperative op and the
		// spec path share would break if it got a change wrong. Nothing
		// drifted at quiescence either, so a running healer has had
		// nothing to repair.
		if d := c.IntentDrift(); len(d) != 0 {
			return fmt.Errorf("after %s: intent drift %v", op, d)
		}
		if heals := healPlans(c); len(heals) != 0 {
			return fmt.Errorf("after %s: the healer ran %d plans, first %q %v", op, len(heals), heals[0].Label, stepOps(heals[0]))
		}
		if !replayMatchesIntent(t, c) {
			return fmt.Errorf("after %s: audit replay differs from live intent", op)
		}
		return nil
	}

	pick := func() *App {
		uris := c.Apps()
		if len(uris) == 0 {
			return nil
		}
		return c.App(uris[rng.Intn(len(uris))])
	}
	ran := map[string]int{}
	rev, next := 0, 0
	for i := 0; i < nOps; i++ {
		var op string
		var err error
		switch k := rng.Intn(10); {
		case k < 2 || len(c.Apps()) == 0:
			op = "deploy"
			pod := rng.Intn(4)
			a := deployed{
				uri:  fmt.Sprintf("flexnet://infra/app%d", next),
				path: []string{fmt.Sprintf("p%d-e0", pod), fmt.Sprintf("p%d-e1", pod)},
				cols: uint64(64 << rng.Intn(3)),
			}
			next++
			dp := &flexbpf.Datapath{Name: a.uri, Segments: []*flexbpf.Program{apps.HeavyHitter("hh", 2, int(a.cols), 1000)}}
			if err = await(t, f, func(done func(error)) { c.Deploy(ctx, a.uri, dp, DeployOptions{Path: a.path}, done) }); err == nil {
				imperative = append(imperative, a)
			}
		case k < 4:
			op = "update"
			app := pick()
			err = await(t, f, func(done func(error)) {
				c.UpdateApp(ctx, app.URI, "hh", hhResize(1024<<rng.Intn(4)), func(_ *delta.Report, e error) { done(e) })
			})
		case k < 5:
			op = "scale-out"
			app := pick()
			err = await(t, f, func(done func(error)) { c.ScaleOut(ctx, app.URI, "hh", "", done) })
		case k < 6:
			op = "scale-in"
			app := pick()
			reps := app.Replicas["hh"]
			err = await(t, f, func(done func(error)) { c.ScaleIn(ctx, app.URI, "hh", reps[len(reps)-1], done) })
		case k < 7:
			op = "migrate"
			app := pick()
			dst := devices[rng.Intn(len(devices))]
			err = await(t, f, func(done func(error)) {
				c.Migrate(ctx, MigrateRequest{URI: app.URI, Segment: "hh", Dst: dst}, func(r plan.MoveReport) { done(r.Err) })
			})
		case k < 8:
			op = "redeploy"
			app := pick()
			dp := &flexbpf.Datapath{Name: app.URI, Segments: []*flexbpf.Program{apps.HeavyHitter("hh", 2, 32<<rng.Intn(5), 1000)}}
			err = await(t, f, func(done func(error)) { c.Redeploy(ctx, app.URI, dp, done) })
		case k < 9:
			op = "spec-apply"
			rev = 1 - rev
			_, err = applySpec(t, f, c, resolve(rev))
		default:
			op = "remove"
			app := pick()
			err = await(t, f, func(done func(error)) { c.Remove(ctx, app.URI, done) })
		}
		// A refused operation (no room to scale, last replica, migrate
		// onto a replica) is part of the sequence; the memo must hold
		// after it too.
		if err == nil {
			ran[op]++
		}
		if verr := check(fmt.Sprintf("op %d (%s, err %v)", i, op, err)); verr != nil {
			return verr
		}
	}
	if !mutant {
		for _, op := range []string{"deploy", "update", "scale-out", "scale-in", "migrate", "redeploy", "spec-apply", "remove"} {
			if ran[op] < 5 {
				t.Errorf("only %d successful %s ops in the sequence: %v", ran[op], op, ran)
			}
		}
	}
	return nil
}

func TestLiveFingerprintMemoUnderRandomOps(t *testing.T) {
	f, c := fatTreeBed(t, 20, 4)
	if err := memoSequence(t, f, c, 20, 500, false); err != nil {
		t.Fatal(err)
	}
}

// TestHealerQuietUnderRandomOps runs the random-op sequence with the
// healer scanning every millisecond. Mid-plan the devices and intent
// disagree all the time — a migration's destination holds the instance
// before Replicas names it, a deploy registers its app before its plan
// commits — but at quiescence they never do, so the healer must not run
// a single plan: a healer that lowered orphans mid-plan would remove
// migrating instances.
func TestHealerQuietUnderRandomOps(t *testing.T) {
	f, c := fatTreeBed(t, 20, 4)
	c.StartHealer(time.Millisecond)
	if err := memoSequence(t, f, c, 20, 300, false); err != nil {
		t.Fatal(err)
	}
}

// TestLiveFingerprintMemoMutantIsCaught proves the check above can
// fail: a memo keyed by segment name alone, ignoring the program
// pointer, keeps a fingerprint across the first update, swap or
// redeploy, and the sequence must notice.
func TestLiveFingerprintMemoMutantIsCaught(t *testing.T) {
	f, c := fatTreeBed(t, 20, 4)
	err := memoSequence(t, f, c, 20, 500, true)
	if err == nil {
		t.Fatal("a memo that ignores the program pointer passed 500 operations unnoticed")
	}
	t.Logf("mutant caught: %v", err)
}

// TestUpdateThenSpecSwapsBack: an imperative update of a spec-created
// app is drift the spec's diff names exactly — one swap — and applying
// the spec again swaps the declared program back.
func TestUpdateThenSpecSwapsBack(t *testing.T) {
	f, c := fatTreeBed(t, 3, 4)
	s := &spec.Spec{Version: "v1", Apps: []spec.AppSpec{
		{URI: "flexnet://infra/mon", Path: []string{"p0-e0"}, Segments: []spec.SegmentSpec{{Name: "hh", App: "heavy-hitter", Args: []uint64{2, 128, 1000}, Scale: 2}}},
		{URI: "flexnet://infra/fw", Path: []string{"p1-e0"}, Segments: []spec.SegmentSpec{{Name: "fw", App: "firewall"}}},
	}}
	r, err := spec.Resolve(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := applySpec(t, f, c, r); err != nil {
		t.Fatal(err)
	}
	if d := c.DiffSpec(r); !d.Empty() {
		t.Fatalf("diff after apply: %v", d.Summary())
	}
	const uri = "flexnet://infra/mon"
	declared := c.liveFP(c.App(uri), "hh")
	if err := await(t, f, func(done func(error)) {
		c.UpdateApp(context.Background(), uri, "hh", hhResize(8192), func(_ *delta.Report, e error) { done(e) })
	}); err != nil {
		t.Fatal(err)
	}
	if c.liveFP(c.App(uri), "hh") == declared {
		t.Fatal("update did not change the live fingerprint")
	}
	d := c.DiffSpec(r)
	want := &spec.Diff{Version: "v1", Swap: []spec.SegmentChange{{
		URI: uri, Segment: "hh", Seg: r.Apps[uri].Segment("hh"), Replicas: c.App(uri).Replicas["hh"],
	}}}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("diff after update = %v, want exactly one swap of %s#hh", d.Summary(), uri)
	}
	if st := c.SpecStatus(); st.InSync || len(st.Drift) != 1 {
		t.Fatalf("status after update = %+v", st)
	}
	rep, err := applySpec(t, f, c, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Diff.Swap) != 1 || rep.PlansEmitted != 1 {
		t.Fatalf("re-apply emitted %d plans for %v", rep.PlansEmitted, rep.Diff.Summary())
	}
	if got := c.liveFP(c.App(uri), "hh"); got != declared || compiler.Fingerprint(c.App(uri).Datapath.Segment("hh")) != declared {
		t.Fatalf("fingerprint after swapping back = %x, want the declared %x", got, declared)
	}
	if st := c.SpecStatus(); !st.InSync {
		t.Fatalf("status after swapping back = %+v", st)
	}

	// The swapped-in program is a copy the grow wave made of the
	// resolved spec's. A caller scribbling on it breaks the
	// live-programs-are-never-edited contract for that app, but must
	// not reach the resolver: the resolved spec and the next Resolve of
	// the same document still carry the declared program.
	live := c.App(uri).Datapath.Segment("hh")
	live.Maps[0].MaxEntries += 17
	live.Pipeline = nil
	if got := compiler.Fingerprint(r.Apps[uri].Segment("hh").Program()); got != declared {
		t.Fatalf("editing a committed swap's program changed the resolved spec's: %x, want %x", got, declared)
	}
	r2, err := spec.Resolve(s)
	if err != nil {
		t.Fatal(err)
	}
	if seg := r2.Apps[uri].Segment("hh"); seg.FP() != declared || compiler.Fingerprint(seg.Program()) != declared {
		t.Fatalf("editing a committed swap's program changed what Resolve returns: %x / %x, want %x",
			seg.FP(), compiler.Fingerprint(seg.Program()), declared)
	}
}

// TestDiffSpecWarmAllocs: on a 70-app network whose live fingerprints
// are remembered, DiffSpec and SpecStatus fingerprint no segment, as
// counted through the package's one compiler.Fingerprint call site;
// with the memo dropped, one DiffSpec fingerprints every live segment
// once, which shows the count sits on the path.
func TestDiffSpecWarmAllocs(t *testing.T) {
	f, c := fatTreeBed(t, 1, 8)
	s := &spec.Spec{Version: "v1"}
	for i := 0; i < 70; i++ {
		pod := i % 8
		s.Apps = append(s.Apps, spec.AppSpec{
			URI:      fmt.Sprintf("flexnet://infra/app%d", i),
			Path:     []string{fmt.Sprintf("p%d-e%d", pod, i/8%4)},
			Segments: []spec.SegmentSpec{{Name: "hh", App: "heavy-hitter", Args: []uint64{2, 128, 1000}}},
		})
	}
	r, err := spec.Resolve(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := applySpec(t, f, c, r); err != nil {
		t.Fatal(err)
	}
	if d := c.DiffSpec(r); !d.Empty() || len(c.Apps()) != 70 {
		t.Fatalf("%d apps live, diff %v", len(c.Apps()), d.Summary())
	}
	calls := 0
	orig := fingerprint
	fingerprint = func(p *flexbpf.Program) uint64 { calls++; return orig(p) }
	t.Cleanup(func() { fingerprint = orig })

	diff := testing.AllocsPerRun(5, func() { c.DiffSpec(r) })
	status := testing.AllocsPerRun(5, func() { c.SpecStatus() })
	t.Logf("warm DiffSpec %.0f allocs, SpecStatus %.0f; %d fingerprints", diff, status, calls)
	if calls != 0 {
		t.Fatalf("warm DiffSpec and SpecStatus fingerprinted %d segments — the memo is not being hit", calls)
	}
	for _, uri := range c.Apps() {
		app := c.App(uri)
		c.state.mu.Lock()
		app.fps = nil
		c.state.mu.Unlock()
	}
	c.DiffSpec(r)
	if calls != 70 {
		t.Fatalf("a DiffSpec with the memo dropped fingerprinted %d of 70 segments", calls)
	}
}
