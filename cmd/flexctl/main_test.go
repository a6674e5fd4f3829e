package main

import (
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const testSchedule = `{
  "seed": 7,
  "events": [
    {"at_ns": 1000000, "kind": "link-down", "target": "s1-s2", "duration_ns": 5000000},
    {"at_ns": 2000000, "kind": "drpc-delay", "target": "*", "delay_ns": 300000, "prob": 0.5}
  ]
}
`

const testSpec = `version: v1
apps:
  - uri: flexnet://infra/defense
    segments:
      - name: syn
        app: syn-defense
        args: [128, 5]
`

// testArgv splits a command line and points SCHED and SPEC at files
// holding testSchedule and testSpec.
func testArgv(t *testing.T, line string) []string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{"SCHED": testSchedule, "SPEC": testSpec}
	argv := strings.Fields(line)
	for i, a := range argv {
		if body, ok := files[a]; ok {
			argv[i] = filepath.Join(dir, a)
			if err := os.WriteFile(argv[i], []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return argv
}

// wireObject decodes a request line as a JSON object and drops its
// zero-valued members: the daemon decodes an absent member and a zero
// one into the same api.Request field, and api.Request leaves zero
// fields off the wire where earlier clients sent some of them.
func wireObject(t *testing.T, raw []byte) map[string]interface{} {
	t.Helper()
	var m map[string]interface{}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("request %s: %v", raw, err)
	}
	for k, v := range m {
		switch v {
		case "", 0.0, false, nil:
			delete(m, k)
		}
	}
	return m
}

// TestRequests pins the request every command line sends: each
// subcommand with its default flags and with non-default ones, the verb
// groups and the -stats/-trace shortcuts. The wanted lines are what
// flexctl sent when it built each request as a map of JSON keys, so
// building them as api.Request changes nothing the daemon decodes.
func TestRequests(t *testing.T) {
	for _, c := range []struct {
		argv string
		want string
	}{
		{"status", `{"op":"status"}`},
		{"devices", `{"op":"devices"}`},
		{"deploy", `{"app":"","op":"deploy","uri":""}`},
		{"deploy -uri flexnet://infra/hh -app heavy-hitter -args 128,5 -path s1,s2 -tenant acme -dry-run", `{"app":"heavy-hitter","args":[128,5],"dry_run":true,"op":"deploy","path":["s1","s2"],"tenant":"acme","uri":"flexnet://infra/hh"}`},
		{"deploy -uri flexnet://infra/d -app syn-defense -path s1 -args 0", `{"app":"syn-defense","args":[0],"op":"deploy","path":["s1"],"uri":"flexnet://infra/d"}`},
		{"deploy -uri flexnet://infra/d -app l2 -path s1,,s2, -args ,7,", `{"app":"l2","args":[7],"op":"deploy","path":["s1","s2"],"uri":"flexnet://infra/d"}`},
		{"remove", `{"op":"remove","uri":""}`},
		{"remove -uri flexnet://infra/hh -dry-run", `{"dry_run":true,"op":"remove","uri":"flexnet://infra/hh"}`},
		{"migrate", `{"device":"","op":"migrate","segment":"","uri":""}`},
		{"migrate -uri flexnet://infra/hh -segment hh -device s2 -dp -dry-run", `{"data_plane":true,"device":"s2","dry_run":true,"op":"migrate","segment":"hh","uri":"flexnet://infra/hh"}`},
		{"scale-out", `{"device":"","op":"scale-out","segment":"","uri":""}`},
		{"scale-out -uri flexnet://infra/hh -segment hh -device s2 -dry-run", `{"device":"s2","dry_run":true,"op":"scale-out","segment":"hh","uri":"flexnet://infra/hh"}`},
		{"scale-in", `{"device":"","op":"scale-in","segment":"","uri":""}`},
		{"scale-in -uri flexnet://infra/hh -segment hh -device s2 -dry-run", `{"device":"s2","dry_run":true,"op":"scale-in","segment":"hh","uri":"flexnet://infra/hh"}`},
		{"tenant-add", `{"op":"tenant-add","tenant":""}`},
		{"tenant-add -tenant acme", `{"op":"tenant-add","tenant":"acme"}`},
		{"tenant-remove", `{"op":"tenant-remove","tenant":""}`},
		{"tenant-remove -tenant acme", `{"op":"tenant-remove","tenant":"acme"}`},
		{"traffic", `{"dst_ip":"","op":"traffic","pps":10000,"src_host":""}`},
		{"traffic -src h1 -dst 10.0.0.2 -pps 20000.5", `{"dst_ip":"10.0.0.2","op":"traffic","pps":20000.5,"src_host":"h1"}`},
		{"traffic-stop", `{"op":"traffic-stop"}`},
		{"run", `{"millis":100,"op":"run"}`},
		{"run -ms 500", `{"millis":500,"op":"run"}`},
		{"stats", `{"op":"stats"}`},
		{"trace", `{"op":"trace"}`},
		{"trace -plan plan-3", `{"op":"trace","plan":"plan-3"}`},
		{"trace -plan last", `{"op":"trace"}`},
		{"report", `{"op":"report"}`},
		{"faults -file SCHED", `{"faults":{"seed":7,"events":[{"at_ns":1000000,"kind":"link-down","target":"s1-s2","duration_ns":5000000},{"at_ns":2000000,"kind":"drpc-delay","target":"*","delay_ns":300000,"prob":0.5}]},"op":"faults"}`},
		{"heal", `{"millis":5,"op":"heal"}`},
		{"heal -ms 7", `{"millis":7,"op":"heal"}`},
		{"heal-status", `{"op":"heal-status"}`},
		{"spec-apply -file SPEC", `{"op":"spec-apply","spec":"version: v1\napps:\n  - uri: flexnet://infra/defense\n    segments:\n      - name: syn\n        app: syn-defense\n        args: [128, 5]\n"}`},
		{"spec-apply -file SPEC -dry-run", `{"dry_run":true,"op":"spec-apply","spec":"version: v1\napps:\n  - uri: flexnet://infra/defense\n    segments:\n      - name: syn\n        app: syn-defense\n        args: [128, 5]\n"}`},
		{"spec-diff -file SPEC", `{"op":"spec-diff","spec":"version: v1\napps:\n  - uri: flexnet://infra/defense\n    segments:\n      - name: syn\n        app: syn-defense\n        args: [128, 5]\n"}`},
		{"spec-status", `{"op":"spec-status"}`},
		{"audit", `{"limit":10,"op":"audit"}`},
		{"audit -n 3", `{"limit":3,"op":"audit"}`},
		{"audit-verify", `{"op":"audit-verify"}`},
		{"audit-replay", `{"op":"audit-replay"}`},
		{"ha-status", `{"op":"ha-status"}`},
		{"ha-failover", `{"op":"ha-failover"}`},
		{"spec", `{"op":"spec-status"}`},
		{"spec status", `{"op":"spec-status"}`},
		{"spec apply -file SPEC -dry-run", `{"dry_run":true,"op":"spec-apply","spec":"version: v1\napps:\n  - uri: flexnet://infra/defense\n    segments:\n      - name: syn\n        app: syn-defense\n        args: [128, 5]\n"}`},
		{"spec diff -file SPEC", `{"op":"spec-diff","spec":"version: v1\napps:\n  - uri: flexnet://infra/defense\n    segments:\n      - name: syn\n        app: syn-defense\n        args: [128, 5]\n"}`},
		{"audit verify", `{"op":"audit-verify"}`},
		{"audit replay", `{"op":"audit-replay"}`},
		{"audit -n 4", `{"limit":4,"op":"audit"}`},
		{"ha", `{"op":"ha-status"}`},
		{"ha status", `{"op":"ha-status"}`},
		{"ha failover", `{"op":"ha-failover"}`},
		{"-stats", `{"op":"stats"}`},
		{"-trace plan-7", `{"op":"trace","plan":"plan-7"}`},
		{"-trace last", `{"op":"trace"}`},
	} {
		addr, req, err := parse(testArgv(t, c.argv), &strings.Builder{})
		if err != nil {
			t.Errorf("%s: %v", c.argv, err)
			continue
		}
		if addr != "127.0.0.1:9177" {
			t.Errorf("%s: addr %q", c.argv, addr)
		}
		got, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := wireObject(t, got), wireObject(t, []byte(c.want)); !reflect.DeepEqual(g, w) {
			t.Errorf("%s:\n got %s\nwant %s", c.argv, got, c.want)
		}
	}
}

func TestAddrFlag(t *testing.T) {
	addr, req, err := parse([]string{"-addr", "10.1.2.3:9000", "status"}, &strings.Builder{})
	if err != nil || addr != "10.1.2.3:9000" || req.Op != "status" {
		t.Fatalf("parse = %q, %+v, %v", addr, req, err)
	}
}

// TestParseErrors covers the command lines flexctl refuses before it
// dials: a usage error (exit 2) has already printed why; any other
// error is printed as "flexctl: <error>" (exit 1).
func TestParseErrors(t *testing.T) {
	for _, c := range []struct {
		argv  string
		usage bool
		want  string // in the error, or for a usage error in the printed text
	}{
		{"faults", false, `faults needs -file (see README "Operations runbook")`},
		{"spec apply", false, `spec apply needs -file ("-" = stdin)`},
		{"spec-diff", false, `spec diff needs -file ("-" = stdin)`},
		{"deploy -args 1,x", true, `invalid value "1,x" for flag -args: bad -args value "x"`},
		{"frobnicate", true, `flexctl: unknown command "frobnicate"`},
		{"", true, "usage: flexctl"},
		{"-nope", true, "flag provided but not defined: -nope"},
	} {
		var out strings.Builder
		_, req, err := parse(strings.Fields(c.argv), &out)
		if err == nil {
			t.Errorf("%q: parsed into %+v", c.argv, req)
			continue
		}
		if errors.Is(err, errUsage) != c.usage {
			t.Errorf("%q: usage error = %v, want %v (%v)", c.argv, !c.usage, c.usage, err)
		}
		text := err.Error()
		if c.usage {
			text = out.String()
		}
		if !strings.Contains(text, c.want) {
			t.Errorf("%q: %q does not contain %q", c.argv, text, c.want)
		}
	}
	if _, _, err := parse([]string{"deploy", "-h"}, &strings.Builder{}); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("deploy -h: %v, want flag.ErrHelp", err)
	}
}

// TestRender pins what flexctl prints for a reply's data: stats and
// trace replies decode into the telemetry types flexnetd encodes them
// from; a reply those types cannot hold prints as indented JSON.
func TestRender(t *testing.T) {
	for _, c := range []struct{ op, data, want string }{
		{"stats", `{"counters":[{"name":"plan.executed","value":1}],"gauges":[{"name":"dev.s1.free_sram","value":49802240}],"histograms":[{"name":"plan.latency_ns","count":2,"sum":65300000,"bounds":[1000],"buckets":[0,2]}]}`,
			"counters:\n  plan.executed                                1\ngauges:\n  dev.s1.free_sram                             49802240\nhistograms:\n  plan.latency_ns                              count=2 sum=65300000\n"},
		{"trace", `{"id":"plan-1","label":"deploy flexnet://infra/hh","outcome":"succeeded","start_ns":1000000,"end_ns":33650000,"spans":[{"name":"prepare","device":"s1","start_ns":1000000,"end_ns":21000000},{"name":"commit","start_ns":21000000,"end_ns":33650000,"error":"late"}]}`,
			"trace plan-1 \"deploy flexnet://infra/hh\": succeeded, 1ms → 33.65ms (32.65ms)\n  prepare:s1                            1ms +20ms\n  commit                               21ms +12.65ms — late\n"},
		{"trace", `{"id":"","label":"x"}`, "{\n  \"id\": \"\",\n  \"label\": \"x\"\n}\n"},
		{"stats", `[1,2]`, "[\n  1,\n  2\n]\n"},
		{"deploy", `{"uri":"flexnet://infra/hh"}`, "{\n  \"uri\": \"flexnet://infra/hh\"\n}\n"},
	} {
		if got := render(c.op, json.RawMessage(c.data)); got != c.want {
			t.Errorf("render(%s, %s):\n got %q\nwant %q", c.op, c.data, got, c.want)
		}
	}
}
