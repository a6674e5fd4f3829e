package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ctlSampleEvery is how many mutating ops lie between two samples of the
// daemon's memory.
const ctlSampleEvery = 1000

// ctlWarmupOps is the fixed number of storm ops every set-up runs after
// the 48 initial deploys, so lazily built state exists before timing.
const ctlWarmupOps = 2000

// daemon is a running flexnetd subprocess on a free loopback port.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	once sync.Once
	tail *tailBuffer
}

// tailBuffer keeps the last few KB of the daemon's log for diagnostics.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 4096 {
		t.buf = t.buf[len(t.buf)-4096:]
	}
	t.mu.Unlock()
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

var servingRE = regexp.MustCompile(`serving \d+ devices on (\S+)`)

// startDaemon spawns flexnetd with no flags but the topology and a free
// port, and waits until it logs the address it serves on.
func startDaemon(bin string) (*daemon, error) {
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-topo", "fat-tree:k=8")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start flexnetd: %w", err)
	}
	d := &daemon{cmd: cmd, tail: &tailBuffer{}}
	onExit(d.stop)
	ready := make(chan string, 1) // the reader sends at most one address
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(d.tail, line)
			if m := servingRE.FindStringSubmatch(line); m != nil {
				ready <- m[1]
				break
			}
		}
		// Keep draining so the daemon never blocks on a full pipe.
		_, _ = io.Copy(d.tail, stderr) // ends when the daemon exits; the error is that exit
		close(ready)
	}()
	select {
	case addr, ok := <-ready:
		if !ok {
			d.stop()
			return nil, fmt.Errorf("flexnetd exited before serving: %s", d.tail)
		}
		d.addr = addr
		return d, nil
	case <-time.After(opTimeout):
		d.stop()
		return nil, fmt.Errorf("flexnetd did not start serving within %v: %s", opTimeout, d.tail)
	}
}

// stop kills the daemon and waits until it has ended.
func (d *daemon) stop() {
	d.once.Do(func() {
		_ = d.cmd.Process.Kill() // already gone is fine
		_ = d.cmd.Wait()         // a killed process reports its signal; not an error here
	})
}

// wireRequest mirrors flexnetd's JSON request (cmd/flexnetd is a main
// package, so its type cannot be imported).
type wireRequest struct {
	Op      string   `json:"op"`
	URI     string   `json:"uri,omitempty"`
	App     string   `json:"app,omitempty"`
	Args    []uint64 `json:"args,omitempty"`
	Segment string   `json:"segment,omitempty"`
	Device  string   `json:"device,omitempty"`
	Tenant  string   `json:"tenant,omitempty"`
	Path    []string `json:"path,omitempty"`
	DryRun  bool     `json:"dry_run,omitempty"`
	Spec    string   `json:"spec,omitempty"`
}

type wireResponse struct {
	OK    bool            `json:"ok"`
	Error string          `json:"error,omitempty"`
	Data  json.RawMessage `json:"data,omitempty"`
}

func (o *ctlOp) wire() wireRequest {
	r := wireRequest{Op: o.Kind, URI: o.URI, App: o.App, Args: o.Args, Segment: o.Segment, Device: o.Device, Tenant: o.Tenant, Path: o.Path, Spec: string(o.Spec)}
	if o.Kind == "deploy-dry-run" {
		r.Op, r.DryRun = "deploy", true
	}
	return r
}

// client is one closed-loop connection to the daemon.
type client struct {
	conn net.Conn
	rd   *bufio.Reader
}

func dial(addr string) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, opTimeout)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, rd: bufio.NewReaderSize(conn, 1<<16)}, nil
}

// call sends one request and reads its response. The latency runs from
// the first byte written to the last byte read; encoding and decoding
// are outside it. An op that is not answered within opTimeout fails.
func (c *client) call(req wireRequest) (wireResponse, time.Duration, int, error) {
	var resp wireResponse
	line, err := json.Marshal(req)
	if err != nil {
		return resp, 0, 0, err
	}
	line = append(line, '\n')
	if err := c.conn.SetDeadline(time.Now().Add(opTimeout)); err != nil {
		return resp, 0, 0, err
	}
	t0 := time.Now()
	if _, err := c.conn.Write(line); err != nil {
		return resp, opTimeout, 0, fmt.Errorf("%s: write: %w", req.Op, err)
	}
	raw, err := c.rd.ReadBytes('\n')
	lat := time.Since(t0)
	if err != nil {
		return resp, opTimeout, 0, fmt.Errorf("%s: read: %w", req.Op, err)
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		return resp, lat, len(raw), fmt.Errorf("%s: decode: %w", req.Op, err)
	}
	if !resp.OK {
		return resp, lat, len(raw), fmt.Errorf("%s %s: refused: %s", req.Op, req.URI, resp.Error)
	}
	return resp, lat, len(raw), nil
}

// storm is one daemon with the two connections of the workload and the
// client's model of what the daemon holds.
type storm struct {
	d     *daemon
	w, r  *client
	model *ctlModel
	seq   uint64
}

// setupStorm spawns the daemon and runs the fixed set-up: 8 tenants, 48
// deploys and 2,000 ops of the storm's own mix. rttFloor, when asked
// for, is the median latency of `status` on the still-empty daemon.
func setupStorm(bin string, o options, wantFloor bool) (*storm, time.Duration, float64, error) {
	t0 := time.Now()
	d, err := startDaemon(bin)
	if err != nil {
		return nil, 0, 0, err
	}
	s := &storm{d: d, model: newCtlModel(o.seed)}
	if s.w, err = dial(d.addr); err != nil {
		d.stop()
		return nil, 0, 0, err
	}
	if s.r, err = dial(d.addr); err != nil {
		s.close()
		return nil, 0, 0, err
	}
	var floorUS float64
	var floorTime time.Duration
	if wantFloor {
		f0 := time.Now()
		var lats []float64
		for i := 0; i < 2000; i++ {
			_, lat, _, err := s.w.call(wireRequest{Op: "status"})
			if err != nil {
				s.close()
				return nil, 0, 0, err
			}
			lats = append(lats, float64(lat)/1e3)
		}
		floorUS = median(lats)
		floorTime = time.Since(f0)
	}
	for _, op := range s.model.setupOps() {
		if _, _, _, err := s.w.call(op.wire()); err != nil {
			s.close()
			return nil, 0, 0, fmt.Errorf("set-up: %w", err)
		}
	}
	for i := 0; i < ctlWarmupOps; i++ {
		op := s.model.next()
		if _, _, _, err := s.w.call(op.wire()); err != nil {
			s.close()
			return nil, 0, 0, fmt.Errorf("warm-up op %d: %w", i, err)
		}
		s.model.commit(op)
	}
	return s, time.Since(t0) - floorTime, floorUS, nil
}

func (s *storm) close() {
	if s.w != nil {
		s.w.conn.Close()
	}
	if s.r != nil {
		s.r.conn.Close()
	}
	s.d.stop()
}

// stormCounts is what one stretch of the storm cost.
type stormCounts struct {
	wall      time.Duration
	cpu       time.Duration
	attempted uint64 // mutating ops sent
	failed    uint64
	okOps     uint64 // mutating ops answered ok
	bytes     uint64 // response bytes on connection W
	allOps    uint64 // every op on connection W
	reads     uint64 // ops on connection R
	readLats  []float64
	win       *meter // W's ops, by kind
}

// readOp is the i-th op of connection R's cycle: status and devices in
// turn, and spec-status in place of every 16th. spec-status diffs the
// whole network against the last applied spec (~2 ms under the server
// lock with 70 apps); at a third of all reads it held the lock longer
// than all of W's ops together and the storm measured little else.
func readOp(i uint64) string {
	switch {
	case i%16 == 15:
		return "spec-status"
	case i%2 == 0:
		return "status"
	default:
		return "devices"
	}
}

// run drives the storm for dur: connection W in a closed loop over the
// generated mix, connection R in a closed loop over the read ops. With a
// tracer every socket call is a span.
func (s *storm) run(dur time.Duration, tr *tracer, rep *report) stormCounts {
	root := tr.begin("ctl_storm.run", -1, 0)
	var c stormCounts
	pid := s.d.cmd.Process.Pid
	cpu0 := procCPU(pid)

	var stopR atomic.Bool
	var rwg sync.WaitGroup
	var rErr error
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		for i := uint64(0); !stopR.Load(); i++ {
			op := readOp(i)
			sp := tr.begin("api."+op, root, i)
			_, lat, n, err := s.r.call(wireRequest{Op: op})
			tr.end(sp, uint64(n))
			if err != nil {
				rErr = err
				return
			}
			c.reads++
			c.readLats = append(c.readLats, float64(lat)/1e6)
		}
	}()

	start := time.Now()
	c.win = newMeter(ctlSampleEvery, func() float64 { return rssMB(pid) })
	for last := start; ; {
		op := s.model.next()
		req := op.wire()
		s.seq++
		// The client's own time between two calls (generating the op,
		// rendering a spec) is a step kind of its own.
		c.win.step("client", time.Since(last), 0, false)
		sp := tr.begin("api."+op.Kind, root, s.seq)
		_, lat, n, err := s.w.call(req)
		tr.end(sp, uint64(n))
		now := time.Now()
		last = now
		c.allOps++
		c.bytes += uint64(n)
		if op.mutating() {
			c.attempted++
		}
		if err != nil {
			// A failed or refused op is slower than any limit, and the
			// model no longer matches the daemon: stop here.
			rep.failf("ctl_storm: op %d: %v", s.seq, err)
			c.win.step(op.Kind, opTimeout, 0, op.mutating())
			if op.mutating() {
				c.failed++
			}
			break
		}
		s.model.commit(op)
		if op.mutating() {
			c.okOps++
			c.win.step(op.Kind, lat, 1, true)
		} else {
			c.win.step(op.Kind, lat, 0, false)
		}
		if now.Sub(start) >= dur {
			break
		}
	}
	c.wall = time.Since(start)
	stopR.Store(true)
	rwg.Wait()
	if rErr != nil {
		rep.failf("ctl_storm: read connection: %v", rErr)
	}
	c.cpu = procCPU(pid) - cpu0
	tr.end(root, c.okOps)
	return c
}

// endChecks asks the daemon to verify its own books: the audit chain
// hashes, replaying it rebuilds the live intent, and the number of apps
// equals the client's model.
func (s *storm) endChecks(rep *report) {
	if _, _, _, err := s.w.call(wireRequest{Op: "audit-verify"}); err != nil {
		rep.failf("ctl_storm: %v", err)
	}
	resp, _, _, err := s.w.call(wireRequest{Op: "audit-replay"})
	if err != nil {
		rep.failf("ctl_storm: %v", err)
	} else {
		var data struct {
			Match bool `json:"match"`
		}
		if err := json.Unmarshal(resp.Data, &data); err != nil || !data.Match {
			rep.failf("ctl_storm: audit-replay does not match live intent: %s", bytes.TrimSpace(resp.Data))
		}
	}
	resp, _, _, err = s.w.call(wireRequest{Op: "status"})
	if err != nil {
		rep.failf("ctl_storm: %v", err)
		return
	}
	var st struct {
		Apps []string `json:"apps"`
	}
	if err := json.Unmarshal(resp.Data, &st); err != nil {
		rep.failf("ctl_storm: status: %v", err)
	} else if len(st.Apps) != s.model.liveApps() {
		rep.failf("ctl_storm: daemon holds %d apps, the client's model %d", len(st.Apps), s.model.liveApps())
	}
}

// flexnetdBinary returns the daemon binary to spawn, building it when
// none was given. Building works from inside this module only (go run,
// go test); run.sh builds both binaries itself and passes --flexnetd.
func flexnetdBinary(o options) (string, error) {
	if o.flexnetd != "" {
		return filepath.Abs(o.flexnetd)
	}
	bin := filepath.Join(o.out, "flexnetd")
	cmd := exec.Command("go", "build", "-o", bin, "flexnet/cmd/flexnetd")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build flexnetd (run from the benchmark directory, or pass --flexnetd): %w", err)
	}
	return bin, nil
}

func runCtlStorm(o options, rep *report) error {
	bin, err := flexnetdBinary(o)
	if err != nil {
		return err
	}
	if o.trace == 1 {
		return tracedCtlStorm(bin, o, rep)
	}
	// Set up three times (each a fresh daemon) for a steady setup_s; the
	// last one serves the timed window.
	var s *storm
	var setups []float64
	for i := 0; i < o.setups; i++ {
		if s != nil {
			s.close()
		}
		var dur time.Duration
		if s, dur, _, err = setupStorm(bin, o, false); err != nil {
			return err
		}
		setups = append(setups, dur.Seconds())
	}
	defer s.close()
	c := s.run(o.dur, nil, rep)
	s.endChecks(rep)
	rep.Attempted, rep.Failed = c.attempted, c.failed
	rep.setEndToEnd(setups, c.win)
	fmt.Printf("ctl_storm timed_run mutating_ops %d  all_ops %d  read_ops %d  wall_rate %.0f  apps %d  setups %.3g\n",
		c.okOps, c.allOps, c.reads, float64(c.okOps)/c.wall.Seconds(), s.model.liveApps(), setups)
	return nil
}

// tracedCtlStorm is the traced run: the storm untraced for the base
// rate, the same daemon again with a span around every socket call, and
// then the control-plane probes in-process.
func tracedCtlStorm(bin string, o options, rep *report) error {
	total := o.dur
	tr := newTracer()
	s, _, floorUS, err := setupStorm(bin, o, true)
	if err != nil {
		return err
	}
	base := s.run(total*3/10, nil, rep)
	c := s.run(total*4/10, tr, rep)
	s.endChecks(rep)
	s.close()
	rep.Attempted, rep.Failed = base.attempted+c.attempted, base.failed+c.failed

	rep.set("api.rtt_floor_us", floorUS)
	for _, d := range perLayer {
		if kind, ok := strings.CutPrefix(d.Name, "api.op_p50_ms."); ok {
			rep.set(d.Name, median(append([]float64(nil), c.win.byKind[kind]...)))
		}
	}
	rep.set("api.op_p99_ms", c.win.stepQuantile(0.99))
	rep.set("api.read_ops_per_s", ratio(float64(c.reads), c.wall.Seconds()))
	rep.set("api.read_p50_ms", median(c.readLats))
	rep.set("api.resp_bytes_per_op", ratio(float64(c.bytes), float64(c.allOps)))
	rep.set("api.daemon_cpu_us_per_op", ratio(float64(c.cpu)/1e3, float64(c.allOps)))
	rep.set("trace.overhead_ratio", ratio(float64(c.okOps)/c.wall.Seconds(), float64(base.okOps)/base.wall.Seconds()))

	probeControlPlane(rep, tr, o.seed)
	rep.zeroGroup("dp")
	tr.summary("ctl_storm")
	return tr.write(filepath.Join(o.out, "trace-ctl_storm.json"), "ctl_storm")
}
