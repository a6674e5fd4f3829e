package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"flexnet"
	"flexnet/internal/flexbpf"
	"flexnet/internal/packet"
)

// reconfigPeriod is the simulated time between two changes.
const reconfigPeriod = 20 * time.Millisecond

const (
	synURI = "flexnet://bench/syn"
	hhURI  = "flexnet://bench/hh"
	intURI = "flexnet://bench/int"
	verURI = "flexnet://bench/ver"
)

// statefulReconfig is the paper's headline scenario: state-writing
// programs on a three-device chain, 1,024 Poisson flows, and one change
// every 20 ms of simulated time while the traffic runs. Every program
// writes state, so nothing here is cacheable; epoch flips, state-carrying
// migration and cache invalidation cost show here and nowhere else.
var statefulReconfig = &dpWorkload{
	name:  "stateful_reconfig",
	step:  100 * time.Microsecond, // 1,024 flows x 500 pps x 100 us = 51 packets
	build: func(seed int64, workers int) (*dpRun, error) { return buildStateful(seed, workers, nil) },
}

// buildStateful builds the chain. extra, when set, deploys one more app
// on s2 (the self-test uses it to put a policy-dropping program on the
// migration path and see the checks fail).
func buildStateful(seed int64, workers int, extra *flexnet.Program) (*dpRun, error) {
	const ingress, portsPerHost = 8, 128
	t0 := time.Now()
	b := flexnet.New(seed).Workers(workers).
		Switch("s1", flexnet.DRMT).Switch("s2", flexnet.RMT).Switch("s3", flexnet.SoC).
		Host("sink", "10.9.0.1").
		Link("s1", "s2").Link("s2", "s3").Link("s3", "sink").
		DRPC("s2", "172.16.0.2").DRPC("s3", "172.16.0.3")
	for i := 0; i < ingress; i++ {
		h := fmt.Sprintf("h%d", i)
		b.Host(h, fmt.Sprintf("10.1.%d.1", i)).Link(h, "s1")
	}
	n, err := b.Build()
	if err != nil {
		return nil, err
	}
	r := &dpRun{net: n, buildMS: msSince(t0), sinks: []string{"sink"}}

	// Thresholds are out of reach, so no program ever drops or punts:
	// the apps admit all of the workload's traffic and only write state.
	const never = 1 << 40
	apps := []struct {
		uri   string
		path  []string
		progs []*flexnet.Program
	}{
		{synURI, []string{"s1"}, []*flexnet.Program{flexnet.SYNDefense("syn", 4096, never)}},
		{hhURI, []string{"s2"}, []*flexnet.Program{flexnet.HeavyHitter("hh", 4, 4096, never)}},
		{intURI, []string{"s3"}, []*flexnet.Program{flexnet.INTTelemetry("int", 3)}},
		{verURI, []string{"s1"}, []*flexnet.Program{stamper(1), checker(1)}},
	}
	if extra != nil {
		apps = append(apps, struct {
			uri   string
			path  []string
			progs []*flexnet.Program
		}{"flexnet://bench/extra", []string{"s2"}, []*flexnet.Program{extra}})
	}
	for _, a := range apps {
		if err := deploy(n, a.uri, a.path, a.progs...); err != nil {
			return nil, err
		}
	}
	for i := 0; i < ingress; i++ {
		h := fmt.Sprintf("h%d", i)
		for p := 0; p < portsPerHost; p++ {
			f := flowTuple{
				srcHost: h, dstHost: "sink",
				sport: uint16(10000 + p), dport: 443, proto: packet.ProtoTCP, payload: tcpPayload64,
			}
			if err := r.addFlow(f, func(s *flexnet.Source) { s.StartPoisson(500) }); err != nil {
				return nil, err
			}
		}
	}
	r.reconf = newReconfigurer(n, seed)
	return r, nil
}

// stamper and checker are E3's pair: one program stamps meta.ver, the
// next compares it with its own version. Both are swapped in one plan,
// so a packet that meets two different versions saw a mixed
// configuration.
func stamper(v uint64) *flexnet.Program {
	code := flexbpf.NewAsm().MovImm(0, v).StField("meta.ver", 0).Ret().MustBuild()
	return flexnet.NewProgram("stamp").Do(code).MustBuild()
}

func checker(v uint64) *flexnet.Program {
	code := flexbpf.NewAsm().
		MovImm(2, 0).MovImm(3, 1).
		LdField(0, "meta.ver").
		JEqImm(0, v, "ok").
		Count("mixed", 2, 3).Ret().
		Label("ok").
		Count("clean", 2, 3).Ret().
		MustBuild()
	return flexnet.NewProgram("check").Counter("mixed", 1).Counter("clean", 1).Do(code).MustBuild()
}

// reconfigurer issues the changes of stateful_reconfig: a seeded cycle
// over the four kinds, each toggling between two states so the cycle can
// run forever.
type reconfigurer struct {
	net   *flexnet.Network
	cycle []string
	i     int

	hhAt      string // device holding the heavy-hitter sketch
	synScaled bool   // syn has a second replica on s2
	synSize   int
	ver       uint64

	attempted, failed int
	mixed, clean      uint64
	outcomes          []string // one line per change, part of the digest
	lostUpdates       uint64
}

func newReconfigurer(n *flexnet.Network, seed int64) *reconfigurer {
	c := &reconfigurer{net: n, cycle: []string{"migrate", "scale", "update", "redeploy"}, hhAt: "s2", synSize: 4096, ver: 1}
	rand.New(rand.NewSource(seed)).Shuffle(len(c.cycle), func(i, j int) { c.cycle[i], c.cycle[j] = c.cycle[j], c.cycle[i] })
	return c
}

// next performs the cycle's next change through the public control API,
// inside a span and under the per-op watchdog, and returns its kind and
// wall time. A change that returns an error is a failed op.
func (c *reconfigurer) next(tr *tracer, parent int) (kind string, wall time.Duration, err error) {
	kind = c.cycle[c.i%len(c.cycle)]
	c.i++
	c.attempted++
	ctx := context.Background()
	stop := armWatchdog(opTimeout, "stateful_reconfig: "+kind)
	defer stop()
	var rep *flexnet.PlanReport
	t0 := time.Now()
	switch kind {
	case "migrate":
		dst := "s3"
		if c.hhAt == "s3" {
			dst = "s2"
		}
		sp := tr.begin("flexnet.Migrate", parent, uint64(c.i))
		var mr flexnet.MigrationReport
		mr, rep, err = c.net.Migrate(ctx, flexnet.MigrateRequest{URI: hhURI, Segment: "hh", Dst: dst, DataPlane: true})
		tr.end(sp, uint64(mr.ChunksSent))
		if err == nil {
			c.hhAt = dst
			c.lostUpdates += mr.LostUpdates
		}
	case "scale":
		dir := flexnet.ScaleDirOut
		if c.synScaled {
			dir = flexnet.ScaleDirIn
		}
		sp := tr.begin("flexnet.Scale", parent, uint64(c.i))
		rep, err = c.net.Scale(ctx, flexnet.ScaleRequest{URI: synURI, Segment: "syn", Device: "s2", Direction: dir})
		tr.end(sp, 1)
		if err == nil {
			c.synScaled = !c.synScaled
		}
	case "update":
		size := 8192
		if c.synSize == 8192 {
			size = 4096
		}
		d := &flexnet.Delta{Name: fmt.Sprintf("resize-%d", size), Ops: []flexnet.DeltaOp{
			{RemoveMaps: "syn_syn"},
			{AddMap: &flexbpf.MapSpec{Name: "syn_syn", Kind: flexbpf.MapLRU, MaxEntries: size, ValueBits: 32, Shared: true}},
		}}
		sp := tr.begin("flexnet.Update", parent, uint64(c.i))
		_, rep, err = c.net.Update(ctx, flexnet.UpdateRequest{URI: synURI, Segment: "syn", Delta: d})
		tr.end(sp, 1)
		if err == nil {
			c.synSize = size
		}
	case "redeploy":
		c.collectVersions()
		dp := &flexnet.Datapath{Name: verURI, Segments: []*flexnet.Program{stamper(c.ver + 1), checker(c.ver + 1)}}
		sp := tr.begin("controller.Redeploy", parent, uint64(c.i))
		done := false
		c.net.Controller().Redeploy(ctx, verURI, dp, func(e error) { err, done = e, true })
		for limit := c.net.Now() + 30*time.Second; !done && c.net.Now() < limit; {
			c.net.RunFor(10 * time.Millisecond)
		}
		tr.end(sp, 1)
		if !done {
			err = fmt.Errorf("redeploy of %s did not complete", verURI)
		}
		rep = c.net.LastPlanReport()
		if err == nil {
			c.ver++
		}
	}
	wall = time.Since(t0)
	if err != nil {
		c.failed++
		c.outcomes = append(c.outcomes, fmt.Sprintf("%s error %v", kind, err))
		return kind, wall, fmt.Errorf("change %d (%s): %w", c.i, kind, err)
	}
	c.outcomes = append(c.outcomes, fmt.Sprintf("%s %s %d", kind, rep.Outcome, rep.Actual))
	return kind, wall, nil
}

// collectVersions folds the live checker's counters into the totals. It
// must run just before the checker is swapped out.
func (c *reconfigurer) collectVersions() {
	inst := c.net.Device("s1").Instance(verURI + "#check")
	if inst == nil {
		return
	}
	c.mixed += inst.Store().Counter("mixed").Value(0)
	c.clean += inst.Store().Counter("clean").Value(0)
}

func (c *reconfigurer) endChecks(rep *report) {
	c.collectVersions()
	if c.failed != 0 {
		rep.failf("stateful_reconfig: %d of %d changes failed", c.failed, c.attempted)
	}
	if c.mixed != 0 {
		rep.failf("stateful_reconfig: %d packets saw a mixed configuration", c.mixed)
	}
	if c.clean == 0 {
		rep.failf("stateful_reconfig: the version checker saw no packets")
	}
	if n := c.net.Metrics().CounterValue("migrate.lost_updates"); n != 0 || c.lostUpdates != 0 {
		rep.failf("stateful_reconfig: %d state updates lost in migration", n)
	}
	if d := c.net.IntentDrift(); len(d) != 0 {
		rep.failf("stateful_reconfig: intent drift at the end: %v", d)
	}
}
