package main

import (
	"bufio"
	"encoding/json"
	"net"
	"strings"
	"sync"
	"testing"

	"flexnet"
)

func demoServer(t *testing.T) *Server {
	t.Helper()
	topo := &Topology{}
	if err := json.Unmarshal([]byte(demoTopology), topo); err != nil {
		t.Fatal(err)
	}
	nw, err := buildNetwork(topo)
	if err != nil {
		t.Fatal(err)
	}
	return &Server{net: nw, sources: map[string]*flexnet.Source{}}
}

func TestArchByName(t *testing.T) {
	for name, want := range map[string]flexnet.Arch{
		"rmt": flexnet.RMT, "DRMT": flexnet.DRMT, "tile": flexnet.Tile,
		"elasticpipe": flexnet.ElasticPipe, "soc": flexnet.SoC, "host": flexnet.Host,
	} {
		got, err := archByName(name)
		if err != nil || got != want {
			t.Errorf("archByName(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := archByName("quantum"); err == nil {
		t.Error("unknown arch accepted")
	}
}

func TestHandleLifecycle(t *testing.T) {
	s := demoServer(t)

	r := s.handle(&Request{Op: "status"})
	if !r.OK {
		t.Fatalf("status: %v", r.Error)
	}

	r = s.handle(&Request{Op: "deploy", URI: "flexnet://infra/d", App: "syn-defense", Args: []uint64{128, 5}, Path: []string{"s1"}})
	if !r.OK {
		t.Fatalf("deploy: %v", r.Error)
	}
	r = s.handle(&Request{Op: "deploy", URI: "flexnet://infra/d", App: "syn-defense"})
	if r.OK {
		t.Fatal("duplicate deploy accepted")
	}
	r = s.handle(&Request{Op: "deploy", URI: "flexnet://infra/x", App: "no-such-app"})
	if r.OK || !strings.Contains(r.Error, "unknown builtin") {
		t.Fatalf("bad app: %+v", r)
	}

	r = s.handle(&Request{Op: "devices"})
	if !r.OK {
		t.Fatalf("devices: %v", r.Error)
	}

	r = s.handle(&Request{Op: "traffic", SrcHost: "h1", DstIP: "10.0.0.2", PPS: 1000})
	if !r.OK {
		t.Fatalf("traffic: %v", r.Error)
	}
	r = s.handle(&Request{Op: "run", Millis: 200})
	if !r.OK {
		t.Fatalf("run: %v", r.Error)
	}
	r = s.handle(&Request{Op: "migrate", URI: "flexnet://infra/d", Segment: "syn", Device: "s2", DataPlane: true})
	if !r.OK {
		t.Fatalf("migrate: %v", r.Error)
	}
	r = s.handle(&Request{Op: "traffic-stop"})
	if !r.OK {
		t.Fatal("traffic-stop failed")
	}
	r = s.handle(&Request{Op: "tenant-add", Tenant: "acme"})
	if !r.OK {
		t.Fatalf("tenant-add: %v", r.Error)
	}
	r = s.handle(&Request{Op: "tenant-remove", Tenant: "acme"})
	if !r.OK {
		t.Fatalf("tenant-remove: %v", r.Error)
	}
	r = s.handle(&Request{Op: "remove", URI: "flexnet://infra/d"})
	if !r.OK {
		t.Fatalf("remove: %v", r.Error)
	}
	r = s.handle(&Request{Op: "frobnicate"})
	if r.OK {
		t.Fatal("unknown op accepted")
	}
}

func TestBuiltinAppDefaults(t *testing.T) {
	for _, name := range []string{"syn-defense", "heavy-hitter", "rate-limiter", "firewall", "l2", "int"} {
		p, err := builtinApp(name, nil)
		if err != nil || p == nil {
			t.Errorf("builtinApp(%q): %v", name, err)
		}
	}
}

// dialServer serves one loopback connection with s.serveConn and
// returns the client end; served closes when serveConn has returned.
func dialServer(t *testing.T, s *Server) (conn net.Conn, served <-chan struct{}) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := l.Accept()
		l.Close() // one connection only
		if err != nil {
			return
		}
		s.serveConn(c)
	}()
	conn, err = net.Dial("tcp", l.Addr().String())
	if err != nil {
		l.Close()
		t.Fatal(err)
	}
	return conn, done
}

func TestServeConnOverTCP(t *testing.T) {
	conn, _ := dialServer(t, demoServer(t))
	defer conn.Close()
	rd := bufio.NewReader(conn)

	send := func(req string) Response {
		t.Helper()
		if _, err := conn.Write([]byte(req + "\n")); err != nil {
			t.Fatal(err)
		}
		line, err := rd.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		var resp Response
		if err := json.Unmarshal(line, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	if r := send(`{"op":"status"}`); !r.OK {
		t.Fatalf("status over TCP: %v", r.Error)
	}
	if r := send(`not json at all`); r.OK || !strings.Contains(r.Error, "malformed") {
		t.Fatalf("malformed request: %+v", r)
	}
	if r := send(`{"op":"deploy","uri":"flexnet://infra/z","app":"l2","path":["s1"]}`); !r.OK {
		t.Fatalf("deploy over TCP: %v", r.Error)
	}
}

func TestHandleTelemetryOps(t *testing.T) {
	s := demoServer(t)

	// Before any plan: trace and report must fail cleanly, stats succeed.
	if r := s.handle(&Request{Op: "trace"}); r.OK {
		t.Fatal("trace succeeded before any plan executed")
	}
	if r := s.handle(&Request{Op: "report"}); r.OK {
		t.Fatal("report succeeded before any plan executed")
	}
	if r := s.handle(&Request{Op: "stats"}); !r.OK {
		t.Fatalf("stats: %v", r.Error)
	}

	if r := s.handle(&Request{Op: "deploy", URI: "flexnet://infra/d", App: "l2", Path: []string{"s1"}}); !r.OK {
		t.Fatalf("deploy: %v", r.Error)
	}
	if r := s.handle(&Request{Op: "traffic", SrcHost: "h1", DstIP: "10.0.0.2", PPS: 1000}); !r.OK {
		t.Fatalf("traffic: %v", r.Error)
	}
	if r := s.handle(&Request{Op: "run", Millis: 100}); !r.OK {
		t.Fatalf("run: %v", r.Error)
	}

	// stats reflects live instruments.
	r := s.handle(&Request{Op: "stats"})
	if !r.OK {
		t.Fatalf("stats: %v", r.Error)
	}
	raw, _ := json.Marshal(r.Data)
	var snap struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("stats payload: %v", err)
	}
	byName := map[string]int64{}
	for _, c := range snap.Counters {
		byName[c.Name] = c.Value
	}
	if byName["plan.executed"] != 1 || byName["ctl.ops.deploy"] != 1 {
		t.Fatalf("counters after deploy: %v", byName)
	}
	if byName["dev.s1.packets_processed"] == 0 {
		t.Fatalf("no packets counted on s1: %v", byName)
	}

	// trace defaults to the most recent plan; an explicit ID works too.
	for _, req := range []*Request{{Op: "trace"}, {Op: "trace", Plan: "plan-1"}} {
		r = s.handle(req)
		if !r.OK {
			t.Fatalf("trace %+v: %v", req, r.Error)
		}
		raw, _ = json.Marshal(r.Data)
		var tr struct {
			ID      string `json:"id"`
			Outcome string `json:"outcome"`
			Spans   []struct {
				Name string `json:"name"`
			} `json:"spans"`
		}
		if err := json.Unmarshal(raw, &tr); err != nil {
			t.Fatalf("trace payload: %v", err)
		}
		if tr.ID != "plan-1" || tr.Outcome != "succeeded" || len(tr.Spans) == 0 {
			t.Fatalf("trace = %+v", tr)
		}
	}
	if r = s.handle(&Request{Op: "trace", Plan: "plan-99"}); r.OK {
		t.Fatal("trace for unknown plan ID succeeded")
	}

	// report re-serves the last plan report, carrying its trace ID.
	r = s.handle(&Request{Op: "report"})
	if !r.OK {
		t.Fatalf("report: %v", r.Error)
	}
	raw, _ = json.Marshal(r.Data)
	var rep struct {
		ID      string `json:"id"`
		Outcome string `json:"outcome"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report payload: %v", err)
	}
	if rep.ID != "plan-1" || rep.Outcome != "succeeded" {
		t.Fatalf("report = %+v", rep)
	}
}

// TestLegacyOpNamesRejected asserts the pre-dash op spellings of earlier
// releases get the ordinary unknown-op error and change nothing, while
// the canonical names still dispatch.
func TestLegacyOpNamesRejected(t *testing.T) {
	s := demoServer(t)
	for _, op := range []string{"tenant_add", "add-tenant"} {
		r := s.handle(&Request{Op: op, Tenant: "acme"})
		if r.OK || !strings.Contains(r.Error, "unknown op") || !strings.Contains(r.Error, "tenant-add") {
			t.Fatalf("legacy %s: want unknown-op error listing tenant-add, got %+v", op, r)
		}
	}
	// The rejected spellings admitted nobody: the canonical op still can.
	if r := s.handle(&Request{Op: "tenant-add", Tenant: "acme"}); !r.OK {
		t.Fatalf("tenant-add: %v", r.Error)
	}
	if r := s.handle(&Request{Op: "remove-tenant", Tenant: "acme"}); r.OK {
		t.Fatalf("legacy remove-tenant dispatched: %+v", r)
	}
	if r := s.handle(&Request{Op: "tenant-remove", Tenant: "acme"}); !r.OK {
		t.Fatalf("tenant-remove: %v", r.Error)
	}
}

const demoSpec = `
version: v1
apps:
  - uri: flexnet://infra/defense
    segments:
      - name: syn
        app: syn-defense
        args: [128, 5]
`

// TestHandleSpecAndAuditOps drives the declarative surface end to end
// over the daemon API: diff, apply, status, audit tail/verify/replay.
func TestHandleSpecAndAuditOps(t *testing.T) {
	s := demoServer(t)

	r := s.handle(&Request{Op: "spec-diff", Spec: demoSpec})
	if !r.OK {
		t.Fatalf("spec-diff: %v", r.Error)
	}
	raw, _ := json.Marshal(r.Data)
	var diff struct {
		InSync bool     `json:"in_sync"`
		Ops    int      `json:"imperative_ops"`
		Diff   []string `json:"diff"`
	}
	if err := json.Unmarshal(raw, &diff); err != nil {
		t.Fatal(err)
	}
	if diff.InSync || diff.Ops == 0 || len(diff.Diff) == 0 {
		t.Fatalf("diff = %+v", diff)
	}

	if r = s.handle(&Request{Op: "spec-apply", Spec: demoSpec}); !r.OK {
		t.Fatalf("spec-apply: %v", r.Error)
	}
	if r = s.handle(&Request{Op: "spec-status"}); !r.OK {
		t.Fatalf("spec-status: %v", r.Error)
	}
	raw, _ = json.Marshal(r.Data)
	var st struct {
		Version string `json:"version"`
		InSync  bool   `json:"in_sync"`
		Records int    `json:"audit_records"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Version != "v1" || !st.InSync || st.Records == 0 {
		t.Fatalf("spec-status = %+v", st)
	}

	if r = s.handle(&Request{Op: "audit", Limit: 5}); !r.OK {
		t.Fatalf("audit: %v", r.Error)
	}
	if r = s.handle(&Request{Op: "audit-verify"}); !r.OK {
		t.Fatalf("audit-verify: %v", r.Error)
	}
	r = s.handle(&Request{Op: "audit-replay"})
	if !r.OK {
		t.Fatalf("audit-replay: %v", r.Error)
	}
	raw, _ = json.Marshal(r.Data)
	var rp struct {
		Match bool `json:"match"`
	}
	if err := json.Unmarshal(raw, &rp); err != nil {
		t.Fatal(err)
	}
	if !rp.Match {
		t.Fatalf("audit replay does not match live intent: %s", raw)
	}

	if r = s.handle(&Request{Op: "spec-apply"}); r.OK {
		t.Fatal("spec-apply without a document succeeded")
	}
}

// TestReadRepliesGolden pins the status and devices replies byte for
// byte: they are typed structs now, and the bytes are those the
// map[string]interface{} replies produced (captured at the commit before
// the change).
func TestReadRepliesGolden(t *testing.T) {
	s := demoServer(t)
	reply := func(op string) string {
		t.Helper()
		b, err := json.Marshal(s.handle(&Request{Op: op}))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	check := func(op, want string) {
		t.Helper()
		if got := reply(op); got != want {
			t.Errorf("%s reply:\n got %s\nwant %s", op, got, want)
		}
	}
	check("status", `{"ok":true,"data":{"apps":null,"drops":0,"sim_time_ms":0}}`)
	for _, app := range []string{"heavy-hitter", "firewall"} {
		uri := "flexnet://infra/" + builtinSegName[app]
		if r := s.handle(&Request{Op: "deploy", URI: uri, App: app, Path: []string{"s1"}}); !r.OK {
			t.Fatalf("deploy %s: %v", uri, r.Error)
		}
	}
	check("status", `{"ok":true,"data":{"apps":["flexnet://infra/fw","flexnet://infra/hh"],"drops":0,"sim_time_ms":80}}`)
	check("devices", `{"ok":true,"data":[`+
		`{"free_sram":49802240,"free_tcam":6185984,"fungibility":0.9887876157407407,"name":"s1","programs":["flexnet://infra/hh#hh","flexnet://infra/fw#fw","infra.routing"]},`+
		`{"free_sram":50331648,"free_tcam":6193152,"fungibility":0.08333333333333333,"name":"s2","programs":["infra.routing"]}]}`)
	// A device with nothing installed lists null, as the map did.
	if b, _ := json.Marshal(deviceInfo{Name: "bare"}); string(b) != `{"free_sram":0,"free_tcam":0,"fungibility":0,"name":"bare","programs":null}` {
		t.Errorf("empty device row = %s", b)
	}
}

// TestOversizedRequestIsAnswered sends a request line past the 1 MiB
// cap: the daemon must say so before it closes the connection, not hang
// up silently.
func TestOversizedRequestIsAnswered(t *testing.T) {
	conn, served := dialServer(t, demoServer(t))
	rd := bufio.NewReader(conn)
	// A request under the cap still works on this connection first.
	if _, err := conn.Write([]byte(`{"op":"status"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if line, err := rd.ReadString('\n'); err != nil || !strings.Contains(line, `"ok":true`) {
		t.Fatalf("status before the big request: %q, %v", line, err)
	}
	big := `{"op":"spec-diff","spec":"` + strings.Repeat("x", maxRequestBytes+4096) + `"}` + "\n"
	if _, err := conn.Write([]byte(big)); err != nil {
		t.Fatal(err)
	}
	line, err := rd.ReadString('\n')
	if err != nil {
		t.Fatalf("no reply to an oversized request: %v", err)
	}
	if want := `{"ok":false,"error":"request exceeds 1 MiB"}` + "\n"; line != want {
		t.Fatalf("reply = %q, want %q", line, want)
	}
	conn.Close()
	<-served // serveConn returns once the client hangs up
}

// TestSpecReadsBesideOps runs spec-status and spec-diff readers on their
// own connections' goroutines while a writer deploys, scales, removes
// and applies two alternating spec revisions. Both reads fill the
// controller's per-segment fingerprint memo, so under -race this is the
// gate that those writes stay behind the server lock; at the end the
// audit trail must still replay to live intent.
func TestSpecReadsBesideOps(t *testing.T) {
	s := demoServer(t)
	revs := [2]string{demoSpec, strings.Replace(strings.Replace(demoSpec, "version: v1", "version: v2", 1), "[128, 5]", "[256, 5]", 1)}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, op := range []string{"spec-status", "spec-diff"} {
		op := op
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if r := s.handle(&Request{Op: op, Spec: revs[i%2]}); !r.OK {
					t.Errorf("%s: %v", op, r.Error)
					return
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		// The spec names the whole network, so each apply also deletes
		// the imperative app deployed after the previous one.
		for _, req := range []*Request{
			{Op: "spec-apply", Spec: revs[i%2]},
			{Op: "deploy", URI: "flexnet://infra/hh", App: "heavy-hitter", Path: []string{"s1"}},
			{Op: "scale-out", URI: "flexnet://infra/hh", Segment: "hh", Device: "s2"},
			{Op: "scale-in", URI: "flexnet://infra/hh", Segment: "hh", Device: "s2"},
		} {
			if r := s.handle(req); !r.OK {
				t.Fatalf("round %d %s: %v", i, req.Op, r.Error)
			}
		}
	}
	close(done)
	wg.Wait()
	r := s.handle(&Request{Op: "audit-replay"})
	if raw, _ := json.Marshal(r.Data); !r.OK || !strings.Contains(string(raw), `"match":true`) {
		t.Fatalf("audit-replay after the run: %+v", r)
	}
}
