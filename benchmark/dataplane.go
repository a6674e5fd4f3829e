package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"time"

	"flexnet"
)

// frame64 is the payload length that makes a 64-byte frame: simulated
// links carry a length field, never bytes, so every data-plane workload
// uses the smallest packet, where per-packet cost dominates.
const (
	udpPayload64 = 64 - 14 - 20 - 8
	tcpPayload64 = 64 - 14 - 20 - 20
)

// flowTuple is one generated flow, kept so the layer probes can rebuild
// the workload's real packets.
type flowTuple struct {
	srcHost      string // dstHost is where the flow ends
	dstHost      string
	src, dst     uint32 // filled in by addFlow
	sport, dport uint16
	proto        uint64
	payload      int
}

// dpWorkload describes one in-process data-plane workload.
type dpWorkload struct {
	name string
	// step is the simulated time one RunFor call advances: the "step" a
	// user of the simulator waits for. Sized per workload so a step
	// carries a few dozen packets and takes well under a millisecond.
	step time.Duration
	// build makes the network at its defaults (workers = 0) or with an
	// explicit worker count, deploys the apps and starts the sources.
	build func(seed int64, workers int) (*dpRun, error)
}

// dpRun is one built instance of a workload.
type dpRun struct {
	w       *dpWorkload
	net     *flexnet.Network
	sources []*flexnet.Source
	sinks   []string // hosts whose deliveries count as units of work
	flows   []flowTuple
	buildMS float64 // Build() incl. InstallBaseRouting

	// reconf, when set, issues one change whenever simulated time
	// passes nextChange (stateful_reconfig only).
	reconf     *reconfigurer
	nextChange time.Duration
}

func (r *dpRun) delivered() uint64 {
	var n uint64
	for _, h := range r.sinks {
		n += r.net.HostReceived(h)
	}
	return n
}

func (r *dpRun) sent() uint64 {
	var n uint64
	for _, s := range r.sources {
		n += s.Sent
	}
	return n
}

// deviceTotals sums the devices' counters: hops is the number of device
// visits so far, dropped the packets a program (or a draining device)
// dropped. The workloads are built so that dropped stays zero.
func (r *dpRun) deviceTotals() (hops, dropped uint64) {
	for _, name := range r.net.Fabric().Devices() {
		st := r.net.Device(name).Stats()
		hops, dropped = hops+st.Processed, dropped+st.Dropped
	}
	return hops, dropped
}

// dpSampleEvery is how many steps lie between two memory samples.
const dpSampleEvery = 2000

// advance runs one simulated step and, when a change is due, the change,
// and records both on the meter (nil during warm-up).
func (r *dpRun) advance(tr *tracer, parent int, id uint64, m *meter) error {
	sp := tr.begin("netsim.RunFor", parent, id)
	before := r.delivered()
	t0 := time.Now()
	r.net.RunFor(r.w.step)
	lat := time.Since(t0)
	after := r.delivered()
	tr.end(sp, after-before)
	m.step("run", lat, after-before, true)
	if r.reconf == nil || r.net.Now() < r.nextChange {
		return nil
	}
	kind, wall, err := r.reconf.next(tr, parent)
	m.step(kind, wall, r.delivered()-after, false)
	// Changes advance simulated time themselves; the next one is due at
	// the following period boundary.
	r.nextChange = (r.net.Now()/reconfigPeriod + 1) * reconfigPeriod
	return err
}

// setupDP builds the workload and runs its fixed warm-up (100 ms of
// simulated traffic, changes included). It returns the run, the
// simulation digest at the end of the warm-up, and the set-up wall time.
func setupDP(w *dpWorkload, o options, workers int) (*dpRun, string, time.Duration, error) {
	t0 := time.Now()
	r, err := w.build(o.seed, workers)
	if err != nil {
		return nil, "", 0, fmt.Errorf("%s: build: %w", w.name, err)
	}
	r.w = w
	// Deploying the apps has already advanced simulated time; the warm-up
	// and the change schedule count from here.
	r.nextChange = (r.net.Now()/reconfigPeriod + 1) * reconfigPeriod
	for end := r.net.Now() + o.warmup; r.net.Now() < end; {
		if err := r.advance(nil, -1, 0, nil); err != nil {
			return nil, "", 0, fmt.Errorf("%s: warm-up: %w", w.name, err)
		}
	}
	return r, r.digest(), time.Since(t0), nil
}

// digest hashes everything the simulation has decided so far: simulated
// time, per-host deliveries, per-device counters, the whole telemetry
// snapshot (instruction-driven latency histograms, lookups, plan and
// migrate counters) and every change's outcome. A speed-only change to
// the program must leave it as it is.
func (r *dpRun) digest() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "now=%d sent=%d\n", r.net.Now(), r.sent())
	for _, name := range r.net.Fabric().Hosts() {
		fmt.Fprintf(h, "host %s %d\n", name, r.net.HostReceived(name))
	}
	for _, name := range r.net.Fabric().Devices() {
		fmt.Fprintf(h, "dev %s %+v\n", name, r.net.Device(name).Stats())
	}
	h.Write([]byte(r.net.Stats().Format()))
	if r.reconf != nil {
		for _, o := range r.reconf.outcomes {
			fmt.Fprintln(h, o)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// dpCounts is the cost of one measured stretch of a run.
type dpCounts struct {
	wall      time.Duration
	cpu       time.Duration
	delivered uint64
	hops      uint64
	mallocs   uint64
	allocB    uint64
	gcs       uint32
	stats     map[string]int64 // Network.Stats() counter deltas
	win       *meter
}

func (c dpCounts) rate() float64 { return float64(c.delivered) / c.wall.Seconds() }

func counterMap(s flexnet.TelemetrySnapshot) map[string]int64 {
	m := make(map[string]int64, len(s.Counters))
	for _, p := range s.Counters {
		m[p.Name] = p.Value
	}
	return m
}

// measure advances the run until dur of wall clock has elapsed. With a
// tracer, every step and change is a span under one root span.
func (r *dpRun) measure(dur time.Duration, tr *tracer) (dpCounts, error) {
	root := tr.begin(r.w.name+".run", -1, 0)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	stats0 := counterMap(r.net.Stats())
	hops0, _ := r.deviceTotals()
	cpu0, d0 := selfCPU(), r.delivered()
	win := newMeter(dpSampleEvery, func() float64 { return rssMB(os.Getpid()) })
	start := time.Now()
	var runErr error
	for id := uint64(1); runErr == nil && time.Since(start) < dur; id++ {
		runErr = r.advance(tr, root, id, win)
	}
	c := dpCounts{wall: time.Since(start), delivered: r.delivered() - d0, win: win}
	c.cpu = selfCPU() - cpu0
	hops1, _ := r.deviceTotals()
	c.hops = hops1 - hops0
	runtime.ReadMemStats(&ms1)
	c.mallocs, c.allocB, c.gcs = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc, ms1.NumGC-ms0.NumGC
	c.stats = counterMap(r.net.Stats())
	for k, v := range stats0 {
		c.stats[k] -= v
	}
	tr.end(root, c.delivered)
	return c, runErr
}

// finish stops the sources, drains the packets in flight and checks
// conservation: every packet sent was delivered, nothing was dropped by
// policy or by the infrastructure, and (where changes ran) the
// reconfiguration end checks hold. It returns packets sent and lost.
func (r *dpRun) finish(rep *report) (sent, lost uint64) {
	for _, s := range r.sources {
		s.Stop()
	}
	r.net.RunFor(5 * time.Millisecond) // far longer than any path's latency
	sent = r.sent()
	got := r.delivered()
	if got > sent {
		rep.failf("%s: delivered %d > sent %d", r.w.name, got, sent)
	} else {
		lost = sent - got
	}
	if lost != 0 {
		rep.failf("%s: %d of %d packets not delivered after drain", r.w.name, lost, sent)
	}
	if _, n := r.deviceTotals(); n != 0 {
		rep.failf("%s: %d packets dropped by policy", r.w.name, n)
	}
	if n := r.net.InfrastructureDrops(); n != 0 {
		rep.failf("%s: %d infrastructure drops", r.w.name, n)
	}
	if r.reconf != nil {
		r.reconf.endChecks(rep)
	}
	return sent, lost
}

// deploy installs one untenanted app on a fixed path.
func deploy(n *flexnet.Network, uri string, path []string, progs ...*flexnet.Program) error {
	_, err := n.Deploy(context.Background(), uri, flexnet.AppSpec{Programs: progs, Path: path}, flexnet.DeployOptions{})
	if err != nil {
		return fmt.Errorf("deploy %s: %w", uri, err)
	}
	return nil
}

// addFlow resolves the flow's addresses, creates its source at its host,
// starts it with start, and keeps both for the checks and the probes.
func (r *dpRun) addFlow(f flowTuple, start func(*flexnet.Source)) error {
	f.src, f.dst = r.net.Fabric().Host(f.srcHost).IP, r.net.Fabric().Host(f.dstHost).IP
	src, err := r.net.NewSource(f.srcHost, flexnet.FlowSpec{
		Dst: f.dst, Proto: f.proto, SrcPort: f.sport, DstPort: f.dport, PacketLen: f.payload,
	})
	if err != nil {
		return err
	}
	start(src)
	r.sources = append(r.sources, src)
	r.flows = append(r.flows, f)
	return nil
}
