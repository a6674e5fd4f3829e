package faults

import (
	"strings"
	"testing"
	"time"

	"flexnet/internal/dataplane"
	"flexnet/internal/fabric"
	"flexnet/internal/netsim"
	"flexnet/internal/packet"
)

func bed(t *testing.T) *fabric.Fabric {
	t.Helper()
	f := fabric.New(3)
	f.AddSwitch("s1", dataplane.ArchDRMT)
	f.AddSwitch("s2", dataplane.ArchDRMT)
	f.AddHost("h1", packet.IP(10, 0, 0, 1))
	f.AddHost("h2", packet.IP(10, 0, 0, 2))
	f.Connect("h1", "s1", netsim.DefaultLink())
	f.Connect("s1", "s2", netsim.DefaultLink())
	f.Connect("s2", "h2", netsim.DefaultLink())
	if err := f.InstallBaseRouting(); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestParseValidSchedule(t *testing.T) {
	s, err := Parse([]byte(`{"seed": 7, "events": [
		{"at_ns": 1000, "kind": "device-crash", "target": "s1", "duration_ns": 500},
		{"at_ns": 2000, "kind": "drpc-drop", "target": "*", "duration_ns": 500, "prob": 0.5}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 7 || len(s.Events) != 2 {
		t.Fatalf("parsed %+v", s)
	}
	if s.Events[0].Kind != KindDeviceCrash || s.Events[1].Prob != 0.5 {
		t.Fatalf("fields lost: %+v", s.Events)
	}
}

func TestParseRejects(t *testing.T) {
	for _, bad := range []string{
		`{`,
		`{"events": [{"at_ns": 1, "kind": "meteor-strike"}]}`,
	} {
		if _, err := Parse([]byte(bad)); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// Apply must reject events whose targets don't exist — before anything
// is scheduled.
func TestApplyValidatesTargets(t *testing.T) {
	f := bed(t)
	p := New(f, 1)
	cases := []Event{
		{Kind: KindDeviceCrash, Target: "nosuch"},
		{Kind: KindLinkDown, Target: "s1"},                             // not "a-b"
		{Kind: KindLinkDown, Target: "s1-h2"},                          // no such link
		{Kind: KindPartition, Target: "ghost"},                         // no links
		{Kind: KindDRPCDrop, Target: "s1", Prob: 2},                    // prob out of range
		{Kind: KindDRPCDrop, Target: "s1", Prob: 0.5, DurationNs: 100}, // no router enabled
		{Kind: KindLeaderKill},                                         // no HA group bound
	}
	for _, e := range cases {
		if err := p.Apply(&Schedule{Events: []Event{e}}); err == nil {
			t.Errorf("Apply accepted %+v", e)
		}
	}
}

func TestDeviceCrashAndRestart(t *testing.T) {
	f := bed(t)
	p := New(f, 1)
	err := p.Apply(&Schedule{Events: []Event{
		{At: uint64(time.Millisecond), Kind: KindDeviceCrash, Target: "s1", DurationNs: uint64(5 * time.Millisecond)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	f.Sim.RunFor(2 * time.Millisecond)
	d := f.Device("s1")
	if !d.Down() {
		t.Fatal("device not down after crash event")
	}
	if n := len(d.Programs()); n != 0 {
		t.Fatalf("crash kept %d programs", n)
	}
	f.Sim.RunFor(10 * time.Millisecond)
	if d.Down() {
		t.Fatal("device still down after restart")
	}
	if p.Injected[KindDeviceCrash] != 1 {
		t.Fatalf("Injected = %v", p.Injected)
	}
}

func TestLinkDownReroutes(t *testing.T) {
	f := bed(t)
	p := New(f, 1)
	l := f.Net.LinkBetween("s1", "s2")
	if l == nil {
		t.Fatal("no s1-s2 link")
	}
	err := p.Apply(&Schedule{Events: []Event{
		{At: uint64(time.Millisecond), Kind: KindLinkDown, Target: "s1-s2", DurationNs: uint64(5 * time.Millisecond)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	f.Sim.RunFor(2 * time.Millisecond)
	if !l.Down {
		t.Fatal("link not down")
	}
	f.Sim.RunFor(10 * time.Millisecond)
	if l.Down {
		t.Fatal("link not restored")
	}
}

// The same (fabric seed, plane seed, schedule) must produce identical
// injection counts and metric snapshots.
func TestDeterministicReplay(t *testing.T) {
	run := func() string {
		f := bed(t)
		p := New(f, 99)
		sched := Generate(13, GenSpec{
			Devices:        []string{"s1", "s2"},
			Links:          []string{"s1-s2"},
			HorizonNs:      uint64(200 * time.Millisecond),
			CrashMeanGapNs: uint64(50 * time.Millisecond),
			CrashDownNs:    uint64(5 * time.Millisecond),
			LinkMeanGapNs:  uint64(70 * time.Millisecond),
			LinkDownNs:     uint64(5 * time.Millisecond),
		})
		if err := p.Apply(sched); err != nil {
			t.Fatal(err)
		}
		f.Sim.RunFor(300 * time.Millisecond)
		return f.Metrics.Snapshot().Format()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("replay diverged:\n%s\n----\n%s", a, b)
	}
	if !strings.Contains(a, "faults.injected.device-crash") {
		t.Fatalf("no crash counter in snapshot:\n%s", a)
	}
}

// Generate is itself deterministic and respects the horizon.
func TestGenerateDeterministic(t *testing.T) {
	sp := GenSpec{
		Devices:        []string{"a", "b"},
		HorizonNs:      uint64(time.Second),
		CrashMeanGapNs: uint64(100 * time.Millisecond),
		CrashDownNs:    uint64(time.Millisecond),
	}
	s1, s2 := Generate(5, sp), Generate(5, sp)
	if len(s1.Events) == 0 {
		t.Fatal("no events generated")
	}
	if len(s1.Events) != len(s2.Events) {
		t.Fatalf("lengths differ: %d vs %d", len(s1.Events), len(s2.Events))
	}
	for i := range s1.Events {
		if s1.Events[i] != s2.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, s1.Events[i], s2.Events[i])
		}
		if s1.Events[i].At > sp.HorizonNs {
			t.Fatalf("event %d beyond horizon: %+v", i, s1.Events[i])
		}
	}
	if diff := Generate(6, sp); len(diff.Events) == len(s1.Events) {
		same := true
		for i := range diff.Events {
			if diff.Events[i] != s1.Events[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical schedules")
		}
	}
}
