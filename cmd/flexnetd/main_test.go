package main

import (
	"bufio"
	"encoding/json"
	"net"
	"strings"
	"sync"
	"testing"

	"flexnet"
	"flexnet/internal/api"
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

	r := s.handle(&api.Request{Op: "status"})
	if !r.OK {
		t.Fatalf("status: %v", r.Error)
	}

	r = s.handle(&api.Request{Op: "deploy", URI: "flexnet://infra/d", App: "syn-defense", Args: []uint64{128, 5}, Path: []string{"s1"}})
	if !r.OK {
		t.Fatalf("deploy: %v", r.Error)
	}
	r = s.handle(&api.Request{Op: "deploy", URI: "flexnet://infra/d", App: "syn-defense"})
	if r.OK {
		t.Fatal("duplicate deploy accepted")
	}
	r = s.handle(&api.Request{Op: "deploy", URI: "flexnet://infra/x", App: "no-such-app"})
	if r.OK || !strings.Contains(r.Error, "unknown builtin") {
		t.Fatalf("bad app: %+v", r)
	}

	r = s.handle(&api.Request{Op: "devices"})
	if !r.OK {
		t.Fatalf("devices: %v", r.Error)
	}

	r = s.handle(&api.Request{Op: "traffic", SrcHost: "h1", DstIP: "10.0.0.2", PPS: 1000})
	if !r.OK {
		t.Fatalf("traffic: %v", r.Error)
	}
	r = s.handle(&api.Request{Op: "run", Millis: 200})
	if !r.OK {
		t.Fatalf("run: %v", r.Error)
	}
	r = s.handle(&api.Request{Op: "migrate", URI: "flexnet://infra/d", Segment: "syn", Device: "s2", DataPlane: true})
	if !r.OK {
		t.Fatalf("migrate: %v", r.Error)
	}
	r = s.handle(&api.Request{Op: "traffic-stop"})
	if !r.OK {
		t.Fatal("traffic-stop failed")
	}
	r = s.handle(&api.Request{Op: "tenant-add", Tenant: "acme"})
	if !r.OK {
		t.Fatalf("tenant-add: %v", r.Error)
	}
	r = s.handle(&api.Request{Op: "tenant-remove", Tenant: "acme"})
	if !r.OK {
		t.Fatalf("tenant-remove: %v", r.Error)
	}
	r = s.handle(&api.Request{Op: "remove", URI: "flexnet://infra/d"})
	if !r.OK {
		t.Fatalf("remove: %v", r.Error)
	}
	r = s.handle(&api.Request{Op: "frobnicate"})
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

// lineClient returns a function that sends one request line over conn
// and decodes the reply line.
func lineClient(t *testing.T, conn net.Conn) func(req string) api.Response {
	rd := bufio.NewReader(conn)
	return func(req string) api.Response {
		t.Helper()
		if _, err := conn.Write([]byte(req + "\n")); err != nil {
			t.Fatal(err)
		}
		line, err := rd.ReadBytes('\n')
		if err != nil {
			t.Fatalf("%s: no reply: %v", req, err)
		}
		var resp api.Response
		if err := json.Unmarshal(line, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
}

func TestServeConnOverTCP(t *testing.T) {
	conn, _ := dialServer(t, demoServer(t))
	defer conn.Close()
	send := lineClient(t, conn)

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

// TestBadBuiltinArgsAnswered sends app arguments no constructor accepts
// (out of range, or more than the kind takes), through deploy and through
// a spec document: each gets an error reply naming the argument, and the
// daemon still answers the next request.
func TestBadBuiltinArgsAnswered(t *testing.T) {
	conn, _ := dialServer(t, demoServer(t))
	defer conn.Close()
	send := lineClient(t, conn)
	badSpec, _ := json.Marshal(strings.Replace(demoSpec, "[128, 5]", "[0]", 1))
	for _, c := range []struct{ req, err string }{
		{`{"op":"deploy","uri":"flexnet://infra/hh","app":"heavy-hitter","args":[5]}`, "heavy-hitter: argument rows = 5"},
		{`{"op":"deploy","uri":"flexnet://infra/in","app":"int","args":[1,2,3]}`, "int: 3 arguments, takes 1 (deviceID)"},
		{`{"op":"spec-diff","spec":` + string(badSpec) + `}`, "syn-defense: argument sources = 0"},
		{`{"op":"spec-apply","spec":` + string(badSpec) + `}`, "syn-defense: argument sources = 0"},
	} {
		if r := send(c.req); r.OK || !strings.Contains(r.Error, c.err) {
			t.Fatalf("%s: reply %+v, want error %q", c.req, r, c.err)
		}
		if r := send(`{"op":"status"}`); !r.OK {
			t.Fatalf("status after %s: %v", c.req, r.Error)
		}
	}
}

func TestHandleTelemetryOps(t *testing.T) {
	s := demoServer(t)

	// Before any plan: trace and report must fail cleanly, stats succeed.
	if r := s.handle(&api.Request{Op: "trace"}); r.OK {
		t.Fatal("trace succeeded before any plan executed")
	}
	if r := s.handle(&api.Request{Op: "report"}); r.OK {
		t.Fatal("report succeeded before any plan executed")
	}
	if r := s.handle(&api.Request{Op: "stats"}); !r.OK {
		t.Fatalf("stats: %v", r.Error)
	}

	if r := s.handle(&api.Request{Op: "deploy", URI: "flexnet://infra/d", App: "l2", Path: []string{"s1"}}); !r.OK {
		t.Fatalf("deploy: %v", r.Error)
	}
	if r := s.handle(&api.Request{Op: "traffic", SrcHost: "h1", DstIP: "10.0.0.2", PPS: 1000}); !r.OK {
		t.Fatalf("traffic: %v", r.Error)
	}
	if r := s.handle(&api.Request{Op: "run", Millis: 100}); !r.OK {
		t.Fatalf("run: %v", r.Error)
	}

	// stats reflects live instruments.
	r := s.handle(&api.Request{Op: "stats"})
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
	for _, req := range []*api.Request{{Op: "trace"}, {Op: "trace", Plan: "plan-1"}} {
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
	if r = s.handle(&api.Request{Op: "trace", Plan: "plan-99"}); r.OK {
		t.Fatal("trace for unknown plan ID succeeded")
	}

	// report re-serves the last plan report, carrying its trace ID.
	r = s.handle(&api.Request{Op: "report"})
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
		r := s.handle(&api.Request{Op: op, Tenant: "acme"})
		if r.OK || !strings.Contains(r.Error, "unknown op") || !strings.Contains(r.Error, "tenant-add") {
			t.Fatalf("legacy %s: want unknown-op error listing tenant-add, got %+v", op, r)
		}
	}
	// The rejected spellings admitted nobody: the canonical op still can.
	if r := s.handle(&api.Request{Op: "tenant-add", Tenant: "acme"}); !r.OK {
		t.Fatalf("tenant-add: %v", r.Error)
	}
	if r := s.handle(&api.Request{Op: "remove-tenant", Tenant: "acme"}); r.OK {
		t.Fatalf("legacy remove-tenant dispatched: %+v", r)
	}
	if r := s.handle(&api.Request{Op: "tenant-remove", Tenant: "acme"}); !r.OK {
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
// over the daemon API: diff, apply, status, audit, audit-verify, audit-replay.
func TestHandleSpecAndAuditOps(t *testing.T) {
	s := demoServer(t)

	r := s.handle(&api.Request{Op: "spec-diff", Spec: demoSpec})
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

	if r = s.handle(&api.Request{Op: "spec-apply", Spec: demoSpec}); !r.OK {
		t.Fatalf("spec-apply: %v", r.Error)
	}
	if r = s.handle(&api.Request{Op: "spec-status"}); !r.OK {
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

	if r = s.handle(&api.Request{Op: "audit", Limit: 5}); !r.OK {
		t.Fatalf("audit: %v", r.Error)
	}
	if r = s.handle(&api.Request{Op: "audit-verify"}); !r.OK {
		t.Fatalf("audit-verify: %v", r.Error)
	}
	r = s.handle(&api.Request{Op: "audit-replay"})
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

	if r = s.handle(&api.Request{Op: "spec-apply"}); r.OK {
		t.Fatal("spec-apply without a document succeeded")
	}
}

// TestSpecApplyIgnoresPlanBound: spec-apply has no plan bound to tune. A
// request from an older client that still sends "max_plans" decodes
// (encoding/json skips unknown fields) and applies with the default
// bound: two device-disjoint apps still get one plan each, not one
// between them.
func TestSpecApplyIgnoresPlanBound(t *testing.T) {
	s := demoServer(t)
	doc, err := json.Marshal(`
version: v1
apps:
  - uri: flexnet://infra/a
    path: [s1]
    segments:
      - name: syn
        app: syn-defense
        args: [128, 5]
  - uri: flexnet://infra/b
    path: [s2]
    segments:
      - name: syn
        app: syn-defense
        args: [128, 5]
`)
	if err != nil {
		t.Fatal(err)
	}
	var req api.Request
	if err := json.Unmarshal([]byte(`{"op":"spec-apply","max_plans":1,"spec":`+string(doc)+`}`), &req); err != nil {
		t.Fatal(err)
	}
	r := s.handle(&req)
	if !r.OK {
		t.Fatalf("spec-apply: %v", r.Error)
	}
	if got := r.Data.(map[string]interface{})["plans_emitted"]; got != 2 {
		t.Fatalf("plans_emitted = %v, want 2 (one per device-disjoint app)", got)
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
		b, err := json.Marshal(s.handle(&api.Request{Op: op}))
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
		if r := s.handle(&api.Request{Op: "deploy", URI: uri, App: app, Path: []string{"s1"}}); !r.OK {
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
				if r := s.handle(&api.Request{Op: op, Spec: revs[i%2]}); !r.OK {
					t.Errorf("%s: %v", op, r.Error)
					return
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		// The spec names the whole network, so each apply also deletes
		// the imperative app deployed after the previous one.
		for _, req := range []*api.Request{
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
	r := s.handle(&api.Request{Op: "audit-replay"})
	if raw, _ := json.Marshal(r.Data); !r.OK || !strings.Contains(string(raw), `"match":true`) {
		t.Fatalf("audit-replay after the run: %+v", r)
	}
}

// TestPlanRepliesGolden pins the plan replies byte for byte: dry-run
// deploy, scale-out, migrate and remove, and the report op re-serving
// an executed plan. planData is the plan report's one wire encoding;
// the bytes were captured before the request schema moved into
// internal/api.
func TestPlanRepliesGolden(t *testing.T) {
	s := demoServer(t)
	const uri = "flexnet://infra/hh"
	for _, c := range []struct {
		req  api.Request
		want string
	}{
		{api.Request{Op: "deploy", URI: uri, App: "heavy-hitter", Path: []string{"s1"}, DryRun: true},
			`{"ok":true,"data":{"estimated_ms":32.65,"outcome":"planned","plan":"deploy flexnet://infra/hh","steps":[{"status":"validated","step":"install flexnet://infra/hh#hh on s1"}]}}`},
		{api.Request{Op: "deploy", URI: uri, App: "heavy-hitter", Path: []string{"s1"}},
			`{"ok":true,"data":{"uri":"flexnet://infra/hh"}}`},
		{api.Request{Op: "report"},
			`{"ok":true,"data":{"estimated_ms":32.65,"id":"plan-1","outcome":"succeeded","plan":"deploy flexnet://infra/hh","steps":[{"status":"committed","step":"install flexnet://infra/hh#hh on s1"}]}}`},
		{api.Request{Op: "scale-out", URI: uri, Segment: "hh", Device: "s2", DryRun: true},
			`{"ok":true,"data":{"estimated_ms":32.65,"outcome":"planned","plan":"scale-out flexnet://infra/hh/hh -\u003e s2","steps":[{"status":"validated","step":"install flexnet://infra/hh#hh on s2"}]}}`},
		{api.Request{Op: "migrate", URI: uri, Segment: "hh", Device: "s2", DataPlane: true, DryRun: true},
			`{"ok":true,"data":{"estimated_ms":52.009,"outcome":"planned","plan":"migrate flexnet://infra/hh/hh s1 -\u003e s2","steps":[{"status":"validated","step":"install flexnet://infra/hh#hh on s2"},{"status":"validated","step":"migrate-state flexnet://infra/hh#hh: s1 -\u003e s2 (data-plane)"}]}}`},
		{api.Request{Op: "remove", URI: uri, DryRun: true},
			`{"ok":true,"data":{"estimated_ms":26,"outcome":"planned","plan":"remove flexnet://infra/hh","steps":[{"status":"validated","step":"remove flexnet://infra/hh#hh on s1"}]}}`},
		// The dry runs executed nothing: report still serves plan-1.
		{api.Request{Op: "report"},
			`{"ok":true,"data":{"estimated_ms":32.65,"id":"plan-1","outcome":"succeeded","plan":"deploy flexnet://infra/hh","steps":[{"status":"committed","step":"install flexnet://infra/hh#hh on s1"}]}}`},
	} {
		b, err := json.Marshal(s.handle(&c.req))
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != c.want {
			t.Errorf("%s (dry_run=%v) reply:\n got %s\nwant %s", c.req.Op, c.req.DryRun, b, c.want)
		}
	}
}
