// Command flexctl is the CLI client for flexnetd: it translates
// subcommands into the daemon's JSON API and pretty-prints the
// responses — the operator's handle on the app-level management plane.
//
// Each subcommand maps 1:1 onto one of the flexnet control requests
// (DeployOptions, MigrateRequest, ScaleRequest, ...) and declares only
// the flags that request actually has.
//
// Usage examples:
//
//	flexctl status
//	flexctl devices
//	flexctl deploy -uri flexnet://infra/defense -app syn-defense -path s1
//	flexctl traffic -src h1 -dst 10.0.0.2 -pps 20000
//	flexctl run -ms 500
//	flexctl migrate -uri flexnet://infra/defense -segment syn -device s2 -dp
//	flexctl remove -uri flexnet://infra/defense
//	flexctl stats
//	flexctl trace -plan plan-3
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"strings"
	"time"

	"flexnet/internal/api"
)

// request is the JSON body sent to flexnetd.
type request map[string]interface{}

// command is one flexctl subcommand: its own FlagSet (declaring only
// the flags its request has) plus a builder that turns parsed flags
// into the wire request.
type command struct {
	name    string
	summary string
	fs      *flag.FlagSet
	build   func() (request, error)
}

func newCommand(name, summary string) *command {
	return &command{
		name:    name,
		summary: summary,
		fs:      flag.NewFlagSet("flexctl "+name, flag.ExitOnError),
	}
}

// splitCSV parses a comma-separated list, trimming blanks.
func splitCSV(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseArgsCSV parses the numeric app-argument list.
func parseArgsCSV(s string) ([]uint64, error) {
	var args []uint64
	for _, p := range splitCSV(s) {
		var v uint64
		if _, err := fmt.Sscanf(p, "%d", &v); err != nil {
			return nil, fmt.Errorf("bad -args value %q", p)
		}
		args = append(args, v)
	}
	return args, nil
}

// commands builds the full subcommand table.
func commands() map[string]*command {
	cmds := map[string]*command{}
	add := func(c *command) { cmds[c.name] = c }

	{
		c := newCommand(api.OpStatus, api.Summary(api.OpStatus))
		c.build = func() (request, error) { return request{"op": api.OpStatus}, nil }
		add(c)
	}
	{
		c := newCommand(api.OpDevices, api.Summary(api.OpDevices))
		c.build = func() (request, error) { return request{"op": api.OpDevices}, nil }
		add(c)
	}
	{
		c := newCommand(api.OpDeploy, api.Summary(api.OpDeploy))
		uri := c.fs.String("uri", "", "app URI (flexnet://owner/name)")
		app := c.fs.String("app", "", "builtin app name (syn-defense, heavy-hitter, rate-limiter, firewall, l2, int)")
		args := c.fs.String("args", "", "comma-separated numeric app args")
		path := c.fs.String("path", "", "comma-separated device path restricting placement")
		tenant := c.fs.String("tenant", "", "owning tenant")
		dry := c.fs.Bool("dry-run", false, "validate the change plan without executing it")
		c.build = func() (request, error) {
			req := request{"op": api.OpDeploy, "uri": *uri, "app": *app}
			if a, err := parseArgsCSV(*args); err != nil {
				return nil, err
			} else if len(a) > 0 {
				req["args"] = a
			}
			if p := splitCSV(*path); len(p) > 0 {
				req["path"] = p
			}
			if *tenant != "" {
				req["tenant"] = *tenant
			}
			if *dry {
				req["dry_run"] = true
			}
			return req, nil
		}
		add(c)
	}
	{
		c := newCommand(api.OpRemove, api.Summary(api.OpRemove))
		uri := c.fs.String("uri", "", "app URI")
		dry := c.fs.Bool("dry-run", false, "validate the change plan without executing it")
		c.build = func() (request, error) {
			req := request{"op": api.OpRemove, "uri": *uri}
			if *dry {
				req["dry_run"] = true
			}
			return req, nil
		}
		add(c)
	}
	{
		c := newCommand(api.OpMigrate, api.Summary(api.OpMigrate))
		uri := c.fs.String("uri", "", "app URI")
		segment := c.fs.String("segment", "", "app segment name")
		device := c.fs.String("device", "", "destination device")
		dp := c.fs.Bool("dp", false, "use data-plane state migration")
		dry := c.fs.Bool("dry-run", false, "validate the change plan without executing it")
		c.build = func() (request, error) {
			req := request{"op": api.OpMigrate, "uri": *uri, "segment": *segment, "device": *device}
			if *dp {
				req["data_plane"] = true
			}
			if *dry {
				req["dry_run"] = true
			}
			return req, nil
		}
		add(c)
	}
	for _, dir := range []string{api.OpScaleOut, api.OpScaleIn} {
		dir := dir
		c := newCommand(dir, api.Summary(dir))
		uri := c.fs.String("uri", "", "app URI")
		segment := c.fs.String("segment", "", "app segment name")
		device := c.fs.String("device", "", "target device")
		dry := c.fs.Bool("dry-run", false, "validate the change plan without executing it")
		c.build = func() (request, error) {
			req := request{"op": dir, "uri": *uri, "segment": *segment, "device": *device}
			if *dry {
				req["dry_run"] = true
			}
			return req, nil
		}
		add(c)
	}
	{
		c := newCommand(api.OpTenantAdd, api.Summary(api.OpTenantAdd))
		tenant := c.fs.String("tenant", "", "tenant name")
		c.build = func() (request, error) { return request{"op": api.OpTenantAdd, "tenant": *tenant}, nil }
		add(c)
	}
	{
		c := newCommand(api.OpTenantRemove, api.Summary(api.OpTenantRemove))
		tenant := c.fs.String("tenant", "", "tenant name")
		c.build = func() (request, error) { return request{"op": api.OpTenantRemove, "tenant": *tenant}, nil }
		add(c)
	}
	{
		c := newCommand(api.OpTraffic, api.Summary(api.OpTraffic))
		src := c.fs.String("src", "", "traffic source host")
		dst := c.fs.String("dst", "", "traffic destination IP")
		pps := c.fs.Float64("pps", 10000, "packets per second")
		c.build = func() (request, error) {
			return request{"op": api.OpTraffic, "src_host": *src, "dst_ip": *dst, "pps": *pps}, nil
		}
		add(c)
	}
	{
		c := newCommand(api.OpTrafficStop, api.Summary(api.OpTrafficStop))
		c.build = func() (request, error) { return request{"op": api.OpTrafficStop}, nil }
		add(c)
	}
	{
		c := newCommand(api.OpRun, api.Summary(api.OpRun))
		ms := c.fs.Int64("ms", 100, "simulated milliseconds to run")
		c.build = func() (request, error) { return request{"op": api.OpRun, "millis": *ms}, nil }
		add(c)
	}
	{
		c := newCommand(api.OpStats, api.Summary(api.OpStats))
		c.build = func() (request, error) { return request{"op": api.OpStats}, nil }
		add(c)
	}
	{
		c := newCommand(api.OpTrace, api.Summary(api.OpTrace))
		plan := c.fs.String("plan", "", "plan ID (empty = most recent)")
		c.build = func() (request, error) {
			req := request{"op": api.OpTrace}
			if *plan != "" && *plan != "last" {
				req["plan"] = *plan
			}
			return req, nil
		}
		add(c)
	}
	{
		c := newCommand(api.OpReport, api.Summary(api.OpReport))
		c.build = func() (request, error) { return request{"op": api.OpReport}, nil }
		add(c)
	}
	{
		c := newCommand(api.OpFaults, api.Summary(api.OpFaults))
		file := c.fs.String("file", "", "path to a fault schedule ({\"seed\": N, \"events\": [...]}; \"-\" = stdin)")
		c.build = func() (request, error) {
			if *file == "" {
				return nil, fmt.Errorf("faults needs -file (see README \"Operations runbook\")")
			}
			var data []byte
			var err error
			if *file == "-" {
				data, err = io.ReadAll(os.Stdin)
			} else {
				data, err = os.ReadFile(*file)
			}
			if err != nil {
				return nil, err
			}
			var sched json.RawMessage
			if err := json.Unmarshal(data, &sched); err != nil {
				return nil, fmt.Errorf("bad schedule JSON: %w", err)
			}
			return request{"op": api.OpFaults, "faults": sched}, nil
		}
		add(c)
	}
	{
		c := newCommand(api.OpHeal, api.Summary(api.OpHeal))
		ms := c.fs.Int64("ms", 5, "reconciliation scan period (simulated milliseconds)")
		c.build = func() (request, error) { return request{"op": api.OpHeal, "millis": *ms}, nil }
		add(c)
	}
	{
		c := newCommand(api.OpHealStatus, api.Summary(api.OpHealStatus))
		c.build = func() (request, error) { return request{"op": api.OpHealStatus}, nil }
		add(c)
	}
	{
		c := newCommand(api.OpSpecApply, api.Summary(api.OpSpecApply))
		file := c.fs.String("file", "", "declarative spec document (YAML or JSON; \"-\" = stdin)")
		dry := c.fs.Bool("dry-run", false, "compute the diff and validate without executing")
		maxPlans := c.fs.Int("max-plans", 0, "bound batched plans per wave (0 = server default)")
		c.build = func() (request, error) {
			data, err := readFileArg(*file, "spec apply")
			if err != nil {
				return nil, err
			}
			req := request{"op": api.OpSpecApply, "spec": string(data)}
			if *dry {
				req["dry_run"] = true
			}
			if *maxPlans > 0 {
				req["max_plans"] = *maxPlans
			}
			return req, nil
		}
		add(c)
	}
	{
		c := newCommand(api.OpSpecDiff, api.Summary(api.OpSpecDiff))
		file := c.fs.String("file", "", "declarative spec document (YAML or JSON; \"-\" = stdin)")
		c.build = func() (request, error) {
			data, err := readFileArg(*file, "spec diff")
			if err != nil {
				return nil, err
			}
			return request{"op": api.OpSpecDiff, "spec": string(data)}, nil
		}
		add(c)
	}
	{
		c := newCommand(api.OpSpecStatus, api.Summary(api.OpSpecStatus))
		c.build = func() (request, error) { return request{"op": api.OpSpecStatus}, nil }
		add(c)
	}
	{
		c := newCommand(api.OpAudit, api.Summary(api.OpAudit))
		n := c.fs.Int("n", 10, "number of trailing records to show")
		c.build = func() (request, error) { return request{"op": api.OpAudit, "limit": *n}, nil }
		add(c)
	}
	{
		c := newCommand(api.OpAuditVerify, api.Summary(api.OpAuditVerify))
		c.build = func() (request, error) { return request{"op": api.OpAuditVerify}, nil }
		add(c)
	}
	{
		c := newCommand(api.OpAuditReplay, api.Summary(api.OpAuditReplay))
		c.build = func() (request, error) { return request{"op": api.OpAuditReplay}, nil }
		add(c)
	}
	{
		c := newCommand(api.OpHAStatus, api.Summary(api.OpHAStatus))
		c.build = func() (request, error) { return request{"op": api.OpHAStatus}, nil }
		add(c)
	}
	{
		c := newCommand(api.OpHAFailover, api.Summary(api.OpHAFailover))
		c.build = func() (request, error) { return request{"op": api.OpHAFailover}, nil }
		add(c)
	}
	return cmds
}

// readFileArg reads a -file argument ("-" = stdin).
func readFileArg(path, what string) ([]byte, error) {
	if path == "" {
		return nil, fmt.Errorf("%s needs -file (\"-\" = stdin)", what)
	}
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

func usage(cmds map[string]*command) {
	names := make([]string, 0, len(cmds))
	for n := range cmds {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "usage: flexctl [-addr host:port] <command> [flags]\n\ncommands:\n")
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-14s %s\n", n, cmds[n].summary)
	}
	fmt.Fprintf(os.Stderr, `
Run "flexctl <command> -h" for that command's flags.

verb groups: "flexctl spec apply|diff|status",
             "flexctl audit [verify|replay]", and
             "flexctl ha [status|failover]" join onto the dashed
             command names above ("flexctl spec" = "flexctl spec-status",
             "flexctl ha" = "flexctl ha-status")

shortcuts: "flexctl -stats" = "flexctl stats";
           "flexctl -trace ID" = "flexctl trace -plan ID" ("last" = most recent)

-dry-run (deploy/remove/migrate/scale-*) validates the operation's
change plan and prints its steps and cost estimate without mutating
the network.
`)
	os.Exit(2)
}

func main() {
	cmds := commands()
	addr := flag.String("addr", "127.0.0.1:9177", "flexnetd address")
	statsFlag := flag.Bool("stats", false, "print the telemetry snapshot (shortcut for the stats command)")
	traceFlag := flag.String("trace", "", "print a plan's execution trace by ID; \"last\" = most recent")
	flag.Usage = func() { usage(cmds) }
	flag.Parse()

	name := ""
	rest := flag.Args()
	switch {
	case *statsFlag:
		name = "stats"
	case *traceFlag != "":
		name = "trace"
		if *traceFlag != "last" {
			rest = []string{"-plan", *traceFlag}
		}
	case len(rest) >= 1:
		name = rest[0]
		rest = rest[1:]
		// Verb groups: "flexctl spec apply", "flexctl audit verify" and
		// "flexctl ha status" join onto the canonical dashed op names.
		if (name == "spec" || name == "audit" || name == "ha") && len(rest) >= 1 {
			if sub := name + "-" + rest[0]; cmds[sub] != nil {
				name = sub
				rest = rest[1:]
			}
		}
		if name == "spec" {
			name = api.OpSpecStatus
		}
		if name == "ha" {
			name = api.OpHAStatus
		}
	default:
		usage(cmds)
	}
	cmd := cmds[name]
	if cmd == nil {
		fmt.Fprintf(os.Stderr, "flexctl: unknown command %q\n\n", name)
		usage(cmds)
	}
	cmd.fs.Parse(rest)
	req, err := cmd.build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "flexctl: %v\n", err)
		os.Exit(1)
	}

	conn, err := net.Dial("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flexctl: connect %s: %v\n", *addr, err)
		os.Exit(1)
	}
	defer conn.Close()
	raw, _ := json.Marshal(req)
	if _, err := conn.Write(append(raw, '\n')); err != nil {
		fmt.Fprintf(os.Stderr, "flexctl: send: %v\n", err)
		os.Exit(1)
	}
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		fmt.Fprintf(os.Stderr, "flexctl: read: %v\n", err)
		os.Exit(1)
	}
	var resp struct {
		OK    bool            `json:"ok"`
		Error string          `json:"error"`
		Data  json.RawMessage `json:"data"`
	}
	if err := json.Unmarshal(line, &resp); err != nil {
		fmt.Fprintf(os.Stderr, "flexctl: malformed response: %v\n", err)
		os.Exit(1)
	}
	if !resp.OK {
		fmt.Fprintf(os.Stderr, "flexctl: %s\n", resp.Error)
		os.Exit(1)
	}
	if len(resp.Data) > 0 {
		switch name {
		case "stats":
			if out, ok := renderStats(resp.Data); ok {
				fmt.Print(out)
				return
			}
		case "trace":
			if out, ok := renderTrace(resp.Data); ok {
				fmt.Print(out)
				return
			}
		}
		var pretty interface{}
		json.Unmarshal(resp.Data, &pretty)
		out, _ := json.MarshalIndent(pretty, "", "  ")
		fmt.Println(string(out))
	} else {
		fmt.Println("ok")
	}
}

// renderStats pretty-prints a telemetry snapshot (falls back to raw JSON
// on decode failure).
func renderStats(raw json.RawMessage) (string, bool) {
	var s struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
		Gauges []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"gauges"`
		Histograms []struct {
			Name    string   `json:"name"`
			Count   uint64   `json:"count"`
			Sum     int64    `json:"sum"`
			Bounds  []int64  `json:"bounds"`
			Buckets []uint64 `json:"buckets"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return "", false
	}
	var b strings.Builder
	if len(s.Counters) > 0 {
		b.WriteString("counters:\n")
		for _, p := range s.Counters {
			fmt.Fprintf(&b, "  %-44s %d\n", p.Name, p.Value)
		}
	}
	if len(s.Gauges) > 0 {
		b.WriteString("gauges:\n")
		for _, p := range s.Gauges {
			fmt.Fprintf(&b, "  %-44s %d\n", p.Name, p.Value)
		}
	}
	if len(s.Histograms) > 0 {
		b.WriteString("histograms:\n")
		for _, h := range s.Histograms {
			fmt.Fprintf(&b, "  %-44s count=%d sum=%d\n", h.Name, h.Count, h.Sum)
		}
	}
	return b.String(), true
}

// renderTrace pretty-prints a plan execution trace.
func renderTrace(raw json.RawMessage) (string, bool) {
	var t struct {
		ID      string `json:"id"`
		Label   string `json:"label"`
		Outcome string `json:"outcome"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
		Spans   []struct {
			Name    string `json:"name"`
			Device  string `json:"device"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
			Err     string `json:"error"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(raw, &t); err != nil || t.ID == "" {
		return "", false
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s %q: %s, %v → %v (%v)\n", t.ID, t.Label, t.Outcome,
		time.Duration(t.StartNs), time.Duration(t.EndNs), time.Duration(t.EndNs-t.StartNs))
	for _, sp := range t.Spans {
		name := sp.Name
		if sp.Device != "" {
			name += ":" + sp.Device
		}
		fmt.Fprintf(&b, "  %-28s %12v +%v", name, time.Duration(sp.StartNs), time.Duration(sp.EndNs-sp.StartNs))
		if sp.Err != "" {
			fmt.Fprintf(&b, " — %s", sp.Err)
		}
		b.WriteByte('\n')
	}
	return b.String(), true
}
