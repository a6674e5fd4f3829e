// Command flexnetd runs a FlexNet controller daemon: it builds a
// simulated runtime-programmable network from a topology file and
// exposes the controller's app-level API over a TCP JSON-lines protocol
// (the management-plane analogue of P4Runtime, lifted to the app level
// as §3.4 of the paper proposes).
//
// Usage:
//
//	flexnetd -listen 127.0.0.1:9177 -topology topo.json
//
// Topology file format (JSON):
//
//	{
//	  "seed": 1,
//	  "switches": [{"name": "s1", "arch": "drmt"}],
//	  "hosts":    [{"name": "h1", "ip": "10.0.0.1"}],
//	  "links":    [{"a": "h1", "b": "s1"}],
//	  "drpc":     [{"device": "s1", "ip": "172.16.0.1"}]
//	}
//
// Protocol: one JSON object per line, one response per request. See
// cmd/flexctl for a client. Simulated time advances on demand via the
// "run" op and implicitly inside synchronous ops (deploy, migrate, ...).
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux, served only under -pprof
	"os"
	"strings"
	"sync"
	"time"

	"flexnet"
	"flexnet/internal/api"
	"flexnet/internal/apps"
)

// Topology is the daemon's network description.
type Topology struct {
	Seed int64 `json:"seed"`
	// Topo is a compact generated-topology spec ("fat-tree:k=8",
	// "spine-leaf:spines=4,leaves=8,hosts=10") expanded before the
	// explicit members below; the -topo flag overrides it.
	Topo     string `json:"topo"`
	Switches []struct {
		Name string `json:"name"`
		Arch string `json:"arch"`
	} `json:"switches"`
	Hosts []struct {
		Name string `json:"name"`
		IP   string `json:"ip"`
	} `json:"hosts"`
	Links []struct {
		A string `json:"a"`
		B string `json:"b"`
	} `json:"links"`
	DRPC []struct {
		Device string `json:"device"`
		IP     string `json:"ip"`
	} `json:"drpc"`
}

func archByName(s string) (flexnet.Arch, error) {
	switch strings.ToLower(s) {
	case "rmt":
		return flexnet.RMT, nil
	case "drmt":
		return flexnet.DRMT, nil
	case "tile":
		return flexnet.Tile, nil
	case "elasticpipe":
		return flexnet.ElasticPipe, nil
	case "soc":
		return flexnet.SoC, nil
	case "host":
		return flexnet.Host, nil
	default:
		return 0, fmt.Errorf("unknown architecture %q", s)
	}
}

func buildNetwork(t *Topology) (*flexnet.Network, error) {
	b := flexnet.New(t.Seed)
	if t.Topo != "" {
		b.Topo(t.Topo)
	}
	for _, sw := range t.Switches {
		arch, err := archByName(sw.Arch)
		if err != nil {
			return nil, err
		}
		b.Switch(sw.Name, arch)
	}
	for _, h := range t.Hosts {
		b.Host(h.Name, h.IP)
	}
	for _, l := range t.Links {
		b.Link(l.A, l.B)
	}
	for _, d := range t.DRPC {
		b.DRPC(d.Device, d.IP)
	}
	return b.Build()
}

// statusInfo and deviceInfo are the status and devices replies. The
// fields are declared in the alphabetical order encoding/json gives map
// keys, so the bytes on the wire are those of the maps they replaced.
type statusInfo struct {
	Apps      []string `json:"apps"`
	Drops     uint64   `json:"drops"`
	SimTimeMS int64    `json:"sim_time_ms"`
}

type deviceInfo struct {
	FreeSRAM    int      `json:"free_sram"`
	FreeTCAM    int      `json:"free_tcam"`
	Fungibility float64  `json:"fungibility"`
	Name        string   `json:"name"`
	Programs    []string `json:"programs"`
}

// Server wraps a network with a serialized API.
type Server struct {
	mu      sync.Mutex
	net     *flexnet.Network
	sources map[string]*flexnet.Source
	nextSrc int
	// plane and healer are created on first use by the "faults" and
	// "heal" ops; a daemon that never injects faults behaves (and
	// exports telemetry) exactly as before.
	plane  *flexnet.FaultPlane
	healer *flexnet.Healer
}

// builtinSegName is the default segment name each builtin kind deploys
// under (the declarative spec path names segments explicitly instead).
var builtinSegName = map[string]string{
	"syn-defense":  "syn",
	"heavy-hitter": "hh",
	"rate-limiter": "rl",
	"firewall":     "fw",
	"l2":           "l2",
	"int":          "int",
}

// builtinApp instantiates one of the library apps by kind, via the
// shared builtin table also used by declarative specs.
func builtinApp(kind string, args []uint64) (*flexnet.Program, error) {
	name, ok := builtinSegName[kind]
	if !ok {
		name = kind
	}
	return apps.Builtin(kind, name, args)
}

// planData is a plan report's one wire encoding, for dry runs and the
// report op: every step with its status, plus the plan-level outcome
// and estimate. TestPlanRepliesGolden pins its bytes.
func planData(rep *flexnet.PlanReport) api.Response {
	steps := make([]map[string]interface{}, 0, len(rep.Steps))
	for _, sr := range rep.Steps {
		m := map[string]interface{}{
			"step":   sr.Step.String(),
			"status": sr.Status.String(),
		}
		if sr.Err != nil {
			m["error"] = sr.Err.Error()
		}
		steps = append(steps, m)
	}
	data := map[string]interface{}{
		"plan":         rep.Label,
		"outcome":      rep.Outcome.String(),
		"estimated_ms": float64(rep.Estimated.Microseconds()) / 1000.0,
		"steps":        steps,
	}
	if len(rep.Degraded) > 0 {
		data["degraded"] = rep.Degraded
	}
	if rep.ID != "" {
		data["id"] = rep.ID
	}
	if rep.Err != nil {
		data["error"] = rep.Err.Error()
	}
	return api.Response{OK: true, Data: data}
}

// handle checks the op name against the shared table and dispatches.
func (s *Server) handle(req *api.Request) api.Response {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !api.Known(req.Op) {
		return api.Response{OK: false, Error: fmt.Sprintf("unknown op %q (have: %s)", req.Op, strings.Join(api.Names(), ", "))}
	}
	return s.dispatch(req)
}

func (s *Server) dispatch(req *api.Request) api.Response {
	fail := func(err error) api.Response { return api.Response{OK: false, Error: err.Error()} }
	switch req.Op {
	case api.OpStatus:
		return api.Response{OK: true, Data: statusInfo{
			Apps:      s.net.Controller().Apps(),
			Drops:     s.net.InfrastructureDrops(),
			SimTimeMS: s.net.Now().Milliseconds(),
		}}
	case api.OpDevices:
		var out []deviceInfo
		for _, r := range s.net.Controller().ResourceView() {
			out = append(out, deviceInfo{
				FreeSRAM:    r.Free.SRAMBits,
				FreeTCAM:    r.Free.TCAMBits,
				Fungibility: r.Fungibility,
				Name:        r.Device,
				Programs:    r.Programs,
			})
		}
		return api.Response{OK: true, Data: out}
	case api.OpDeploy:
		prog, err := builtinApp(req.App, req.Args)
		if err != nil {
			return fail(err)
		}
		spec := flexnet.AppSpec{
			Programs: []*flexnet.Program{prog},
			Path:     req.Path,
			Tenant:   req.Tenant,
		}
		rep, err := s.net.Deploy(context.Background(), req.URI, spec,
			flexnet.DeployOptions{DryRun: req.DryRun})
		if err != nil {
			return fail(err)
		}
		if req.DryRun {
			return planData(rep)
		}
		return api.Response{OK: true, Data: map[string]string{"uri": req.URI}}
	case api.OpRemove:
		rep, err := s.net.Remove(context.Background(), req.URI,
			flexnet.RemoveOptions{DryRun: req.DryRun})
		if err != nil {
			return fail(err)
		}
		if req.DryRun {
			return planData(rep)
		}
		return api.Response{OK: true}
	case api.OpMigrate:
		rep, planRep, err := s.net.Migrate(context.Background(), flexnet.MigrateRequest{
			URI: req.URI, Segment: req.Segment, Dst: req.Device,
			DataPlane: req.DataPlane, DryRun: req.DryRun,
		})
		if err != nil {
			return fail(err)
		}
		if req.DryRun {
			return planData(planRep)
		}
		return api.Response{OK: true, Data: map[string]interface{}{
			"lost_updates": rep.LostUpdates,
			"chunks":       rep.ChunksSent,
			"duration_ms":  (rep.Done - rep.Started).Milliseconds(),
		}}
	case api.OpScaleOut, api.OpScaleIn:
		dir := flexnet.ScaleDirOut
		if req.Op == api.OpScaleIn {
			dir = flexnet.ScaleDirIn
		}
		rep, err := s.net.Scale(context.Background(), flexnet.ScaleRequest{
			URI: req.URI, Segment: req.Segment, Device: req.Device,
			Direction: dir, DryRun: req.DryRun,
		})
		if err != nil {
			return fail(err)
		}
		if req.DryRun {
			return planData(rep)
		}
		return api.Response{OK: true}
	case api.OpTenantAdd:
		tn, err := s.net.AddTenant(req.Tenant)
		if err != nil {
			return fail(err)
		}
		return api.Response{OK: true, Data: map[string]uint64{"vlan": tn.VLAN}}
	case api.OpTenantRemove:
		if err := s.net.DeleteTenant(context.Background(), req.Tenant); err != nil {
			return fail(err)
		}
		return api.Response{OK: true}
	case api.OpTraffic:
		dst, err := flexnet.ParseIP(req.DstIP)
		if err != nil {
			return fail(err)
		}
		src, err := s.net.NewSource(req.SrcHost, flexnet.FlowSpec{
			Dst: dst, Proto: 17, SrcPort: 1000, DstPort: 2000, PacketLen: 256,
		})
		if err != nil {
			return fail(err)
		}
		src.StartCBR(req.PPS)
		s.nextSrc++
		id := fmt.Sprintf("src%d", s.nextSrc)
		s.sources[id] = src
		return api.Response{OK: true, Data: map[string]string{"source": id}}
	case api.OpTrafficStop:
		for _, src := range s.sources {
			src.Stop()
		}
		s.sources = map[string]*flexnet.Source{}
		return api.Response{OK: true}
	case api.OpRun:
		ms := req.Millis
		if ms <= 0 {
			ms = 100
		}
		s.net.RunFor(time.Duration(ms) * time.Millisecond)
		return api.Response{OK: true, Data: map[string]int64{"sim_time_ms": s.net.Now().Milliseconds()}}
	case api.OpStats:
		return api.Response{OK: true, Data: s.net.Stats()}
	case api.OpTrace:
		tr := s.net.Tracer()
		id := req.Plan
		if id == "" {
			last := tr.Last()
			if last == nil {
				return fail(fmt.Errorf("no plans executed yet"))
			}
			id = last.ID
		}
		t := tr.Trace(id)
		if t == nil {
			return fail(fmt.Errorf("no trace for plan %q (retained: %v)", id, tr.IDs()))
		}
		return api.Response{OK: true, Data: t.Snapshot()}
	case api.OpReport:
		rep := s.net.LastPlanReport()
		if rep == nil {
			return fail(fmt.Errorf("no plans executed yet"))
		}
		return planData(rep)
	case api.OpFaults:
		if req.Faults == nil || len(req.Faults.Events) == 0 {
			return fail(fmt.Errorf("faults op needs a schedule (\"faults\": {\"seed\": N, \"events\": [...]})"))
		}
		if s.plane == nil {
			s.plane = s.net.NewFaultPlane(req.Faults.Seed)
			if h := s.net.HA(); h != nil {
				s.plane.BindHA(h) // leader-kill events resolve against HA
			}
		}
		if err := s.plane.Apply(req.Faults); err != nil {
			return fail(err)
		}
		return api.Response{OK: true, Data: map[string]int{"scheduled": len(req.Faults.Events)}}
	case api.OpHeal:
		if s.healer != nil {
			return fail(fmt.Errorf("healer already running"))
		}
		ms := req.Millis
		if ms <= 0 {
			ms = 5
		}
		s.healer = s.net.StartSelfHealing(time.Duration(ms) * time.Millisecond)
		return api.Response{OK: true, Data: map[string]int64{"period_ms": ms}}
	case api.OpHealStatus:
		if s.healer == nil {
			return fail(fmt.Errorf("healer not running (use the heal op first)"))
		}
		drift := s.net.IntentDrift()
		if drift == nil {
			drift = []string{}
		}
		pending := s.healer.Pending()
		if pending == nil {
			pending = []string{}
		}
		return api.Response{OK: true, Data: map[string]interface{}{
			"recovered":    s.healer.Recovered(),
			"pending":      pending,
			"intent_drift": drift,
			"mttr_ns":      s.healer.MTTRs,
		}}
	case api.OpSpecApply:
		if req.Spec == "" {
			return fail(fmt.Errorf("spec-apply needs a spec document (\"spec\": \"...\")"))
		}
		rep, err := s.net.ApplySpec(context.Background(), flexnet.SpecApplyRequest{
			Source: []byte(req.Spec), DryRun: req.DryRun,
		})
		if err != nil {
			return fail(err)
		}
		return api.Response{OK: true, Data: map[string]interface{}{
			"version":        rep.Version,
			"plans_emitted":  rep.PlansEmitted,
			"imperative_ops": rep.Ops,
			"elapsed_ms":     rep.Elapsed.Milliseconds(),
			"diff":           rep.Diff.Summary(),
			"dry_run":        req.DryRun,
		}}
	case api.OpSpecDiff:
		if req.Spec == "" {
			return fail(fmt.Errorf("spec-diff needs a spec document (\"spec\": \"...\")"))
		}
		d, err := s.net.DiffSpec(flexnet.SpecDiffRequest{Source: []byte(req.Spec)})
		if err != nil {
			return fail(err)
		}
		return api.Response{OK: true, Data: map[string]interface{}{
			"version":        d.Version,
			"in_sync":        d.Empty(),
			"imperative_ops": d.Ops(),
			"diff":           d.Summary(),
		}}
	case api.OpSpecStatus:
		st := s.net.SpecStatus()
		drift := st.Drift
		if drift == nil {
			drift = []string{}
		}
		return api.Response{OK: true, Data: map[string]interface{}{
			"version":       st.Version,
			"applied_at_ms": st.AppliedAt.Milliseconds(),
			"in_sync":       st.InSync,
			"drift":         drift,
			"audit_records": st.AuditRecords,
			"audit_head":    st.AuditHead,
		}}
	case api.OpAudit:
		records := s.net.Audit().Records()
		limit := req.Limit
		if limit <= 0 {
			limit = 10
		}
		if limit < len(records) {
			records = records[len(records)-limit:]
		}
		return api.Response{OK: true, Data: map[string]interface{}{
			"total":   s.net.Audit().Len(),
			"records": records,
		}}
	case api.OpAuditVerify:
		if err := s.net.Audit().Verify(); err != nil {
			return fail(err)
		}
		return api.Response{OK: true, Data: map[string]interface{}{
			"records": s.net.Audit().Len(),
			"head":    s.net.Audit().Head(),
		}}
	case api.OpHAStatus:
		st := s.net.HAStatus()
		if !st.Enabled {
			return fail(fmt.Errorf("HA not enabled (start flexnetd with -ha N)"))
		}
		return api.Response{OK: true, Data: st}
	case api.OpHAFailover:
		killed, err := s.net.HAFailover()
		if err != nil {
			return fail(err)
		}
		return api.Response{OK: true, Data: map[string]interface{}{
			"killed": killed,
			"note":   "advance simulated time (run op) to let the standbys elect",
		}}
	case api.OpAuditReplay:
		st, err := flexnet.ReplayAudit(s.net.Audit().Records())
		if err != nil {
			return fail(err)
		}
		replayed := st.Canonical()
		live := s.net.CanonicalIntent()
		data := map[string]interface{}{
			"records": s.net.Audit().Len(),
			"match":   replayed == live,
		}
		if replayed != live {
			data["replayed"] = replayed
			data["live"] = live
		}
		return api.Response{OK: true, Data: data}
	default:
		return fail(fmt.Errorf("unknown op %q", req.Op))
	}
}

// maxRequestBytes caps one request line (a spec document rides inside
// one).
const maxRequestBytes = 1 << 20

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 1<<16), maxRequestBytes)
	enc := json.NewEncoder(conn)
	for sc.Scan() {
		// Decoded in place: the scanner's buffer is only read, and
		// json.Unmarshal copies every string it keeps.
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var req api.Request
		var resp api.Response
		if err := json.Unmarshal(line, &req); err != nil {
			resp = api.Response{OK: false, Error: "malformed request: " + err.Error()}
		} else {
			resp = s.handle(&req)
		}
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		// The scanner cannot resume mid-line, so this connection is done;
		// say why. Closing with the rest of the line unread would reset
		// the connection and could take the reply with it, so read on
		// (for a bounded time) until the client has hung up.
		_ = enc.Encode(api.Response{OK: false, Error: "request exceeds 1 MiB"})
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, _ = io.Copy(io.Discard, conn)
	}
}

func main() {
	listen := flag.String("listen", "127.0.0.1:9177", "TCP listen address")
	topoPath := flag.String("topology", "", "topology JSON file (default: built-in 2-switch demo)")
	topoSpec := flag.String("topo", "", "generated topology spec (e.g. fat-tree:k=8; overrides the topology file's members)")
	haReplicas := flag.Int("ha", 0, "enable controller HA with N active/standby replicas (0 = off)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address, e.g. 127.0.0.1:6060 (diagnostic; empty = off)")
	flag.Parse()
	if *pprofAddr != "" {
		go func() { log.Printf("flexnetd: pprof: %v", http.ListenAndServe(*pprofAddr, nil)) }()
	}

	topo := &Topology{Seed: 1}
	if *topoPath != "" {
		raw, err := os.ReadFile(*topoPath)
		if err != nil {
			log.Fatalf("flexnetd: read topology: %v", err)
		}
		if err := json.Unmarshal(raw, topo); err != nil {
			log.Fatalf("flexnetd: parse topology: %v", err)
		}
	} else {
		if err := json.Unmarshal([]byte(demoTopology), topo); err != nil {
			log.Fatalf("flexnetd: demo topology: %v", err)
		}
	}
	if *topoSpec != "" {
		// A generated fabric replaces the file's (or demo's) members
		// wholesale; the seed still applies.
		topo.Topo = *topoSpec
		topo.Switches, topo.Hosts, topo.Links, topo.DRPC = nil, nil, nil, nil
	}
	nw, err := buildNetwork(topo)
	if err != nil {
		log.Fatalf("flexnetd: build network: %v", err)
	}
	if *haReplicas > 0 {
		nw.EnableHA(*haReplicas, flexnet.HAConfig{Seed: topo.Seed})
		log.Printf("flexnetd: controller HA enabled with %d replicas", *haReplicas)
	}
	srv := &Server{net: nw, sources: map[string]*flexnet.Source{}}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("flexnetd: listen: %v", err)
	}
	log.Printf("flexnetd: serving %d devices on %s", len(nw.Fabric().Devices()), l.Addr())
	for {
		conn, err := l.Accept()
		if err != nil {
			log.Printf("flexnetd: accept: %v", err)
			continue
		}
		go srv.serveConn(conn)
	}
}

const demoTopology = `{
  "seed": 1,
  "switches": [
    {"name": "s1", "arch": "drmt"},
    {"name": "s2", "arch": "rmt"}
  ],
  "hosts": [
    {"name": "h1", "ip": "10.0.0.1"},
    {"name": "h2", "ip": "10.0.0.2"}
  ],
  "links": [
    {"a": "h1", "b": "s1"},
    {"a": "s1", "b": "s2"},
    {"a": "s2", "b": "h2"}
  ],
  "drpc": [
    {"device": "s1", "ip": "172.16.0.1"},
    {"device": "s2", "ip": "172.16.0.2"}
  ]
}`
