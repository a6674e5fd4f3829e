// Command flexctl is the CLI client for flexnetd: it translates
// subcommands into the daemon's JSON API and pretty-prints the
// responses — the operator's handle on the app-level management plane.
//
// Each subcommand fills one api.Request, the type flexnetd decodes,
// and declares only the flags its op reads; every flag writes straight
// into a request field.
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
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"strings"
	"time"

	"flexnet/internal/api"
	"flexnet/internal/apps"
	"flexnet/internal/telemetry"
)

// command is one flexctl subcommand: the request it sends and a
// FlagSet whose flags write into that request.
type command struct {
	fs  *flag.FlagSet
	req api.Request
	// finish, if set, completes the request once its flags are parsed.
	finish func(r *api.Request) error
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

// listFlag is a comma-separated string list flag.
type listFlag []string

func (l *listFlag) String() string     { return strings.Join(*l, ",") }
func (l *listFlag) Set(s string) error { *l = splitCSV(s); return nil }

// argsFlag is the comma-separated numeric app-argument list.
type argsFlag []uint64

func (a *argsFlag) String() string { return fmt.Sprint([]uint64(*a)) }

func (a *argsFlag) Set(s string) error {
	var args []uint64
	for _, p := range splitCSV(s) {
		var v uint64
		if _, err := fmt.Sscanf(p, "%d", &v); err != nil {
			return fmt.Errorf("bad -args value %q", p)
		}
		args = append(args, v)
	}
	*a = args
	return nil
}

// commands builds the subcommand table: one command per canonical op.
func commands() map[string]*command {
	cmds := make(map[string]*command, len(api.Ops))
	for op := range api.Ops {
		c := &command{fs: flag.NewFlagSet("flexctl "+op, flag.ContinueOnError)}
		c.req.Op = op
		cmds[op] = c
	}
	flags := func(op string) (*flag.FlagSet, *api.Request) { return cmds[op].fs, &cmds[op].req }

	for _, op := range []string{api.OpDeploy, api.OpRemove, api.OpMigrate, api.OpScaleOut, api.OpScaleIn} {
		fs, r := flags(op)
		fs.StringVar(&r.URI, "uri", "", "app URI (flexnet://owner/name)")
		fs.BoolVar(&r.DryRun, "dry-run", false, "validate the change plan without executing it")
	}
	for op, device := range map[string]string{api.OpMigrate: "destination device", api.OpScaleOut: "target device", api.OpScaleIn: "target device"} {
		fs, r := flags(op)
		fs.StringVar(&r.Segment, "segment", "", "app segment name")
		fs.StringVar(&r.Device, "device", "", device)
	}
	fs, r := flags(api.OpDeploy)
	var kinds []string
	for k := range apps.BuiltinKinds() {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fs.StringVar(&r.App, "app", "", "builtin app name ("+strings.Join(kinds, ", ")+")")
	fs.Var((*argsFlag)(&r.Args), "args", "comma-separated `list` of numeric app args")
	fs.Var((*listFlag)(&r.Path), "path", "comma-separated device `list` restricting placement")
	fs.StringVar(&r.Tenant, "tenant", "", "owning tenant")
	fs, r = flags(api.OpMigrate)
	fs.BoolVar(&r.DataPlane, "dp", false, "use data-plane state migration")
	for _, op := range []string{api.OpTenantAdd, api.OpTenantRemove} {
		fs, r := flags(op)
		fs.StringVar(&r.Tenant, "tenant", "", "tenant name")
	}
	fs, r = flags(api.OpTraffic)
	fs.StringVar(&r.SrcHost, "src", "", "traffic source host")
	fs.StringVar(&r.DstIP, "dst", "", "traffic destination IP")
	fs.Float64Var(&r.PPS, "pps", 10000, "packets per second")
	fs, r = flags(api.OpRun)
	fs.Int64Var(&r.Millis, "ms", 100, "simulated milliseconds to run")
	fs, r = flags(api.OpHeal)
	fs.Int64Var(&r.Millis, "ms", 5, "reconciliation scan period (simulated milliseconds)")
	fs, r = flags(api.OpAudit)
	fs.IntVar(&r.Limit, "n", 10, "number of trailing records to show")
	fs, r = flags(api.OpSpecApply)
	fs.BoolVar(&r.DryRun, "dry-run", false, "compute the diff and validate without executing")

	fs, r = flags(api.OpTrace)
	fs.StringVar(&r.Plan, "plan", "", "plan ID (empty or \"last\" = most recent)")
	cmds[api.OpTrace].finish = func(r *api.Request) error {
		if r.Plan == "last" {
			r.Plan = ""
		}
		return nil
	}
	file := cmds[api.OpFaults].fs.String("file", "", "path to a fault schedule ({\"seed\": N, \"events\": [...]}; \"-\" = stdin)")
	cmds[api.OpFaults].finish = func(r *api.Request) error {
		data, err := readFileArg(*file, `faults needs -file (see README "Operations runbook")`)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &r.Faults); err != nil {
			return fmt.Errorf("bad schedule JSON: %w", err)
		}
		return nil
	}
	for _, op := range []string{api.OpSpecApply, api.OpSpecDiff} {
		file := cmds[op].fs.String("file", "", "declarative spec document (YAML or JSON; \"-\" = stdin)")
		missing := strings.Replace(op, "-", " ", 1) + ` needs -file ("-" = stdin)`
		cmds[op].finish = func(r *api.Request) error {
			data, err := readFileArg(*file, missing)
			r.Spec = string(data)
			return err
		}
	}
	return cmds
}

// readFileArg reads a -file argument ("-" = stdin); missing is the
// error when none was given.
func readFileArg(path, missing string) ([]byte, error) {
	if path == "" {
		return nil, errors.New(missing)
	}
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

func usage(w io.Writer) {
	fmt.Fprintf(w, "usage: flexctl [-addr host:port] <command> [flags]\n\ncommands:\n")
	for _, n := range api.Names() {
		fmt.Fprintf(w, "  %-14s %s\n", n, api.Summary(n))
	}
	fmt.Fprintf(w, `
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
}

// errUsage marks a command line flexctl cannot run; the reason and the
// usage text have already been written.
var errUsage = errors.New("usage")

// parse turns flexctl's arguments (without the program name) into the
// daemon address and the request to send, writing usage text and flag
// errors to w.
func parse(args []string, w io.Writer) (addr string, req *api.Request, err error) {
	top := flag.NewFlagSet("flexctl", flag.ContinueOnError)
	top.SetOutput(w)
	top.Usage = func() { usage(w) }
	addrFlag := top.String("addr", "127.0.0.1:9177", "flexnetd address")
	statsFlag := top.Bool("stats", false, "print the telemetry snapshot (shortcut for the stats command)")
	traceFlag := top.String("trace", "", "print a plan's execution trace by ID; \"last\" = most recent")
	if err := top.Parse(args); err != nil {
		return "", nil, fmt.Errorf("%w: %w", errUsage, err)
	}

	cmds := commands()
	name, rest := "", top.Args()
	switch {
	case *statsFlag:
		name = api.OpStats
	case *traceFlag != "":
		name, rest = api.OpTrace, []string{"-plan", *traceFlag}
	case len(rest) >= 1:
		name, rest = rest[0], rest[1:]
		// Verb groups: "flexctl spec apply", "flexctl audit verify" and
		// "flexctl ha status" join onto the canonical dashed op names.
		if (name == "spec" || name == "audit" || name == "ha") && len(rest) >= 1 && cmds[name+"-"+rest[0]] != nil {
			name, rest = name+"-"+rest[0], rest[1:]
		}
		switch name {
		case "spec":
			name = api.OpSpecStatus
		case "ha":
			name = api.OpHAStatus
		}
	default:
		usage(w)
		return "", nil, errUsage
	}
	cmd := cmds[name]
	if cmd == nil {
		fmt.Fprintf(w, "flexctl: unknown command %q\n\n", name)
		usage(w)
		return "", nil, errUsage
	}
	cmd.fs.SetOutput(w)
	if err := cmd.fs.Parse(rest); err != nil {
		return "", nil, fmt.Errorf("%w: %w", errUsage, err)
	}
	if cmd.finish != nil {
		if err := cmd.finish(&cmd.req); err != nil {
			return "", nil, err
		}
	}
	return *addrFlag, &cmd.req, nil
}

func main() {
	addr, req, err := parse(os.Args[1:], os.Stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err != nil:
		fmt.Fprintf(os.Stderr, "flexctl: %v\n", err)
		os.Exit(1)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flexctl: connect %s: %v\n", addr, err)
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
	var data json.RawMessage
	resp := api.Response{Data: &data}
	if err := json.Unmarshal(line, &resp); err != nil {
		fmt.Fprintf(os.Stderr, "flexctl: malformed response: %v\n", err)
		os.Exit(1)
	}
	if !resp.OK {
		fmt.Fprintf(os.Stderr, "flexctl: %s\n", resp.Error)
		os.Exit(1)
	}
	if len(data) == 0 {
		fmt.Println("ok")
		return
	}
	fmt.Print(render(req.Op, data))
}

// render formats a reply's data for the terminal: a stats or trace
// reply as a table, anything else as indented JSON.
func render(op string, data json.RawMessage) string {
	switch op {
	case api.OpStats:
		var s telemetry.Snapshot
		if json.Unmarshal(data, &s) == nil {
			return renderStats(s)
		}
	case api.OpTrace:
		var t telemetry.TraceSnapshot
		if json.Unmarshal(data, &t) == nil && t.ID != "" {
			return renderTrace(t)
		}
	}
	var pretty interface{}
	json.Unmarshal(data, &pretty)
	out, _ := json.MarshalIndent(pretty, "", "  ")
	return string(out) + "\n"
}

// renderStats pretty-prints a telemetry snapshot.
func renderStats(s telemetry.Snapshot) string {
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
	return b.String()
}

// renderTrace pretty-prints a plan execution trace.
func renderTrace(t telemetry.TraceSnapshot) string {
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
	return b.String()
}
