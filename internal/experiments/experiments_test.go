package experiments

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"flexnet/internal/controller/cluster"
)

// cell parses a numeric table cell, dropping a trailing "%" or "×".
func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	s := tab.Rows[row][col]
	s = strings.TrimSuffix(strings.TrimSuffix(s, "%"), "×")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s cell [%d][%d] = %q not numeric", tab.ID, row, col, s)
	}
	return v
}

func TestE1HitlessShape(t *testing.T) {
	tab := E1Hitless(1)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	rtLost := cell(t, tab, 0, 3)
	ctLost := cell(t, tab, 1, 3)
	if rtLost != 0 {
		t.Fatalf("runtime reconfiguration lost %v packets", rtLost)
	}
	if ctLost <= 1000 {
		t.Fatalf("compile-time baseline lost only %v packets", ctLost)
	}
}

func TestE2AllSubSecond(t *testing.T) {
	tab := E2ReconfigLatency(1)
	for _, row := range tab.Rows {
		if row[4] != "yes" {
			t.Fatalf("change %s exceeded 1s: %s", row[0], row[3])
		}
	}
}

func TestE3ConsistencyShape(t *testing.T) {
	tab := E3Consistency(1)
	atomicMixed := cell(t, tab, 0, 3)
	splitMixed := cell(t, tab, 1, 3)
	if atomicMixed != 0 {
		t.Fatalf("atomic swaps produced %v mixed packets", atomicMixed)
	}
	if splitMixed == 0 {
		t.Fatal("split updates produced no mixed packets — test not discriminating")
	}
}

func TestE4Shape(t *testing.T) {
	tab := E4DynamicApps(1)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// FlexNet: zero drops; static: many drops.
	if v := cell(t, tab, 0, 2); v != 0 {
		t.Fatalf("FlexNet dropped %v", v)
	}
	if v := cell(t, tab, 3, 2); v == 0 {
		t.Fatal("static baseline dropped nothing")
	}
	// Mantis resources > FlexNet resources.
	if cell(t, tab, 1, 3) <= cell(t, tab, 0, 3) {
		t.Fatal("Mantis not paying resource overhead")
	}
	// HyPer4 lookups > native.
	if cell(t, tab, 2, 4) <= cell(t, tab, 0, 4) {
		t.Fatal("HyPer4 not paying lookup overhead")
	}
	if tab.Rows[1][5] != "NO" {
		t.Fatal("Mantis claims unanticipated support")
	}
}

func TestE5Shape(t *testing.T) {
	tab := E5SecurityElastic(1)
	noBlocked := cell(t, tab, 0, 3)
	staticBlocked := cell(t, tab, 1, 3)
	elasticBlocked := cell(t, tab, 2, 3)
	if noBlocked > 5 {
		t.Fatalf("no-defense blocked %v%%", noBlocked)
	}
	if staticBlocked < 80 || elasticBlocked < 70 {
		t.Fatalf("defenses ineffective: static %v%%, elastic %v%%", staticBlocked, elasticBlocked)
	}
	// Elastic uses the switch much less than always-on (100%).
	elasticUptime := cell(t, tab, 2, 5)
	if elasticUptime >= 95 {
		t.Fatalf("elastic uptime %v%% — not elastic", elasticUptime)
	}
}

func TestE6Shape(t *testing.T) {
	tab := E6CCSwap(1)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	renoRTT := parseNs(t, tab.Rows[0][2])
	dctcpRTT := parseNs(t, tab.Rows[1][2])
	if renoRTT <= 0 || dctcpRTT <= 0 {
		t.Fatalf("degenerate RTTs: reno=%v dctcp=%v", renoRTT, dctcpRTT)
	}
	if dctcpRTT >= renoRTT {
		t.Fatalf("DCTCP RTT %v not below Reno %v after live swap", dctcpRTT, renoRTT)
	}
}

// parseNs parses the harness's human time rendering back to ns.
func parseNs(t *testing.T, s string) float64 {
	t.Helper()
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "µs"):
		mult, s = 1e3, strings.TrimSuffix(s, "µs")
	case strings.HasSuffix(s, "ms"):
		mult, s = 1e6, strings.TrimSuffix(s, "ms")
	case strings.HasSuffix(s, "ns"):
		s = strings.TrimSuffix(s, "ns")
	case strings.HasSuffix(s, "s"):
		mult, s = 1e9, strings.TrimSuffix(s, "s")
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cannot parse time %q", s)
	}
	return v * mult
}

func TestE7Shape(t *testing.T) {
	tab := E7TenantChurn(1)
	reclaimFail := cell(t, tab, 0, 2)
	staticFail := cell(t, tab, 1, 2)
	if reclaimFail > staticFail {
		t.Fatalf("reclamation fails more than static: %v vs %v", reclaimFail, staticFail)
	}
	if staticFail == 0 {
		t.Fatal("static accumulation never failed — load too low to discriminate")
	}
	reclaimUtil := cell(t, tab, 0, 3)
	staticUtil := cell(t, tab, 1, 3)
	if reclaimUtil >= staticUtil {
		t.Fatalf("reclamation did not reduce utilization: %v vs %v", reclaimUtil, staticUtil)
	}
}

func TestE8Shape(t *testing.T) {
	tab := E8FungibleCompile(1)
	// At load 1.0 (row index 4): binpack ~0%, fungible 100%.
	bin := cell(t, tab, 4, 1)
	fun := cell(t, tab, 4, 2)
	if bin > 10 {
		t.Fatalf("binpack succeeds at full load: %v%%", bin)
	}
	if fun < 90 {
		t.Fatalf("fungible fails at full load: %v%%", fun)
	}
	// At light load both succeed.
	if cell(t, tab, 0, 1) < 90 || cell(t, tab, 0, 2) < 90 {
		t.Fatal("light load failing")
	}
	// Beyond capacity (1.2×) both must fail.
	if cell(t, tab, 5, 2) > 10 {
		t.Fatal("fungible 'succeeds' beyond physical capacity")
	}
	// Garbage collection is the one optimisation round: light load fits
	// on the first try, loads 0.4–1.0 need exactly one reclaim round.
	for row, want := range []float64{1, 2, 2, 2, 2} {
		if got := cell(t, tab, row, 3); got != want {
			t.Fatalf("load %s: fungible iterations = %v, want %v", tab.Rows[row][0], got, want)
		}
	}
}

func TestE9Shape(t *testing.T) {
	tab := E9Incremental(1)
	for _, row := range tab.Rows {
		incMoves, _ := strconv.Atoi(row[1])
		fullMoves, _ := strconv.Atoi(row[3])
		if incMoves > fullMoves {
			t.Fatalf("incremental moves %d > full %d", incMoves, fullMoves)
		}
	}
	// Largest change: full recompile must move something.
	last := tab.Rows[len(tab.Rows)-1]
	if v, _ := strconv.Atoi(last[3]); v == 0 {
		t.Log("note: full recompile happened to keep all placements (greedy determinism)")
	}
	if v, _ := strconv.Atoi(last[1]); v != 0 {
		t.Fatalf("incremental moved %d segments on pure addition", v)
	}
}

func TestE10Shape(t *testing.T) {
	tab := E10TableMerge(1)
	prevFactor := 0.0
	for i, row := range tab.Rows {
		factor := cell(t, tab, i, 3)
		if factor <= 1 {
			t.Fatalf("merge %s did not cost memory: %v", row[0], factor)
		}
		if factor < prevFactor {
			t.Fatalf("memory factor not growing with size: %v after %v", factor, prevFactor)
		}
		prevFactor = factor
		before := cell(t, tab, i, 4)
		after := cell(t, tab, i, 5)
		if after != before-1 {
			t.Fatalf("lookups %v → %v, want exactly one saved", before, after)
		}
	}
}

func TestE11Shape(t *testing.T) {
	tab := E11StateMigration(1)
	// Rows alternate cp/dp per rate. All dp rows lose 0; cp rows lose >0
	// and grow with rate.
	var cpLosses []float64
	for i, row := range tab.Rows {
		lost := cell(t, tab, i, 5)
		if strings.Contains(row[1], "data-plane") {
			if lost != 0 {
				t.Fatalf("dp lost %v at %s", lost, row[0])
			}
		} else {
			if lost == 0 {
				t.Fatalf("cp lost nothing at %s", row[0])
			}
			cpLosses = append(cpLosses, lost)
		}
	}
	for i := 1; i < len(cpLosses); i++ {
		if cpLosses[i] <= cpLosses[i-1] {
			t.Fatalf("cp loss not increasing with rate: %v", cpLosses)
		}
	}
}

func TestE12Shape(t *testing.T) {
	tab := E12FaultTolerance(1)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Rows[0][3] != "yes" {
		t.Fatal("survivors inconsistent after failover")
	}
	if strings.Contains(tab.Rows[1][3], "NO") {
		t.Fatal("datapath failover did not recover")
	}
	if lost := cell(t, tab, 0, 2); lost != 0 {
		t.Fatalf("failover lost %v replicated records", lost)
	}
	rec, err := time.ParseDuration(tab.Rows[0][1])
	if err != nil {
		t.Fatalf("recovery time %q: %v", tab.Rows[0][1], err)
	}
	if rec <= 0 || rec > 2*cluster.ElectionMaxNs {
		t.Fatalf("recovery time %v outside (0, %v]", rec, time.Duration(2*cluster.ElectionMaxNs))
	}
	if again := E12FaultTolerance(1); !reflect.DeepEqual(again.Rows, tab.Rows) {
		t.Fatalf("E12 differs across runs at one seed:\n%v\n%v", tab.Rows, again.Rows)
	}
}

func TestE13Shape(t *testing.T) {
	tab := E13Energy(1)
	spread := cell(t, tab, 0, 4)
	consolidated := cell(t, tab, 1, 4)
	if consolidated >= spread {
		t.Fatalf("consolidation saves nothing: %v vs %v", consolidated, spread)
	}
}

func TestE14Shape(t *testing.T) {
	tab := E14DRPC(1)
	if len(tab.Rows) != 2 || !strings.Contains(tab.Rows[0][1], "dRPC") || !strings.Contains(tab.Rows[1][1], "controller") {
		t.Fatalf("rows = %v, want the dRPC row then the controller-mediated one", tab.Rows)
	}
	latency := func(row int) time.Duration {
		d, err := time.ParseDuration(tab.Rows[row][2])
		if err != nil {
			t.Fatalf("latency %q: %v", tab.Rows[row][2], err)
		}
		return d
	}
	// The in-network exchange beats the controller round trips on both
	// latency and message count.
	if dp, cp := latency(0), latency(1); dp <= 0 || dp >= cp {
		t.Fatalf("dRPC latency %v, controller-mediated %v: want 0 < dRPC < controller", dp, cp)
	}
	if dp, cp := cell(t, tab, 0, 3), cell(t, tab, 1, 3); dp >= cp {
		t.Fatalf("dRPC messages %v, controller-mediated %v: want fewer through dRPC", dp, cp)
	}
}

func TestE15Shape(t *testing.T) {
	tab := E15FaultRecovery(1)
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Healing keeps committed intent whole; without it crashes strand it.
	for i, row := range tab.Rows {
		drift := cell(t, tab, i, 6)
		switch row[1] {
		case "reconcile":
			if drift != 0 {
				t.Fatalf("gap %s with reconciliation left %v drifted instances", row[0], drift)
			}
		case "none":
			if drift == 0 {
				t.Fatalf("gap %s without healing shows no drift — test not discriminating", row[0])
			}
		default:
			t.Fatalf("row %d healing = %q", i, row[1])
		}
	}
}

func TestE16Shape(t *testing.T) {
	tab := E16ScaleOut(1)
	if len(tab.Rows) != 22 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	commit := ""
	for i, row := range tab.Rows {
		switch row[3] {
		case "initial build":
			// A one-device commit costs the same at every scale.
			if commit == "" {
				commit = row[10]
			}
			if row[10] != commit {
				t.Fatalf("%s plan commit = %s, want %s as at the first scale", row[0], row[10], commit)
			}
			continue
		case "host link down":
			if ratio := cell(t, tab, i, 7); ratio < 300 {
				t.Fatalf("%s host link down: ratio %v× < 300×", row[0], ratio)
			}
		}
		if row[9] != "identical" {
			t.Fatalf("%s %s: route tables %s from the full recompute", row[0], row[3], row[9])
		}
	}
}

func TestE17Shape(t *testing.T) {
	tab := E17FastPath(1)
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Rows alternate off/on per flow count: the cache-off row is the
	// oracle the cache-on row below it must match.
	for i := 1; i < len(tab.Rows); i += 2 {
		off, on := tab.Rows[i-1], tab.Rows[i]
		if off[0] != "off" || on[0] != "on" || off[1] != on[1] {
			t.Fatalf("rows %d/%d are %v/%v, want off/on at one flow count", i-1, i, off[:2], on[:2])
		}
		if on[6] != "identical" {
			t.Fatalf("flows=%s: dev telemetry %s, want identical", on[1], on[6])
		}
		if on[2] != off[2] {
			t.Fatalf("flows=%s: cache on delivered %s packets, oracle %s", on[1], on[2], off[2])
		}
		if hit := cell(t, tab, i, 3); hit < 99.98 {
			t.Fatalf("flows=%s: hit rate %v%% < 99.98%%", on[1], hit)
		}
	}
}

func TestE18Shape(t *testing.T) {
	tab := E18ControlPlane(1)
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Rows alternate incremental/full per k; k=16 is rows 4 and 5.
	segs := ""
	for i, row := range tab.Rows {
		if ops := cell(t, tab, i, 4); ops < 1 {
			t.Fatalf("%s %s ran %v ops", row[0], row[3], ops)
		}
		if row[11] != "identical" {
			t.Fatalf("%s: %s placement %s from the other mode", row[0], row[3], row[11])
		}
		if row[3] != "incremental" {
			continue
		}
		// The incremental planner's work has no fabric-size term.
		if segs == "" {
			segs = row[6]
		}
		if row[6] != segs {
			t.Fatalf("%s incremental recompiled %s segments, want %s as at the first scale", row[0], row[6], segs)
		}
	}
	if k16 := tab.Rows[4]; k16[0] != "fat-tree k=16" || k16[3] != "incremental" {
		t.Fatalf("row 4 = %s %s, want fat-tree k=16 incremental", k16[0], k16[3])
	}
	if vs := cell(t, tab, 4, 10); vs < 5 {
		t.Fatalf("k=16 incremental sustains %v× the full-recompute ops/s, want ≥ 5×", vs)
	}
}

func TestE19Shape(t *testing.T) {
	tab := E19SpecReconcile(1)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Rows alternate spec/imperative per k; k=16 is rows 2 and 3.
	specPlans := cell(t, tab, 2, 4)
	imperPlans := cell(t, tab, 3, 4)
	if specPlans > 0.10*imperPlans {
		t.Fatalf("spec apply emitted %v plans, more than 10%% of the %v imperative plans", specPlans, imperPlans)
	}
	specConv := parseNs(t, tab.Rows[2][6])
	imperConv := parseNs(t, tab.Rows[3][6])
	if specConv >= imperConv {
		t.Fatalf("spec convergence %v not below imperative %v", specConv, imperConv)
	}
	for _, i := range []int{0, 2} { // spec rows must be hitless with zero drift
		if drops := cell(t, tab, i, 7); drops != 0 {
			t.Fatalf("spec apply on %s dropped %v packets", tab.Rows[i][0], drops)
		}
		if drift := cell(t, tab, i, 8); drift != 0 {
			t.Fatalf("spec apply on %s left %v drifted instances", tab.Rows[i][0], drift)
		}
	}
	for i, row := range tab.Rows { // both modes must replay to live intent
		if row[9] != "match" {
			t.Fatalf("row %d audit replay = %q, want match", i, row[9])
		}
		if plans := cell(t, tab, i, 4); plans < 1 {
			t.Fatalf("row %d compiled %v plans", i, plans)
		}
		if conv := parseNs(t, row[6]); conv <= 0 {
			t.Fatalf("row %d convergence %q", i, row[6])
		}
	}
}

func TestE20Shape(t *testing.T) {
	tab := E20HAFailover(1)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Deterministic plan resolution: pre-commit kill rolls back,
	// post-commit kill resumes.
	if tab.Rows[1][1] != "rolled back" || tab.Rows[2][1] != "resumed" {
		t.Fatalf("outcomes = %q / %q", tab.Rows[1][1], tab.Rows[2][1])
	}
	if rolled := cell(t, tab, 1, 4); rolled != 1 {
		t.Fatalf("mid-prepare kill rolled back %v plans, want 1", rolled)
	}
	if resumed := cell(t, tab, 2, 3); resumed != 1 {
		t.Fatalf("post-commit kill resumed %v plans, want 1", resumed)
	}
	for i, row := range tab.Rows {
		if mixed := cell(t, tab, i, 5); mixed != 0 {
			t.Fatalf("row %d forwarded %v mixed-configuration packets", i, mixed)
		}
		if drift := cell(t, tab, i, 6); drift != 0 {
			t.Fatalf("row %d left %v drifted instances", i, drift)
		}
		if row[7] != "match" {
			t.Fatalf("row %d audit replay = %q, want match", i, row[7])
		}
		// A failover must not shed traffic: every scenario delivers
		// what the no-kill baseline does.
		if row[8] != tab.Rows[0][8] {
			t.Fatalf("row %d delivered %s kpps, no-kill baseline %s", i, row[8], tab.Rows[0][8])
		}
	}
	// Bounded failover: both kill scenarios elect within 4×ElectionMax,
	// the same bound the chaos soak enforces.
	for _, i := range []int{1, 2} {
		fo := parseNs(t, tab.Rows[i][2])
		if fo <= 0 || fo > 4*cluster.ElectionMaxNs {
			t.Fatalf("row %d failover time %v ns out of bounds", i, fo)
		}
	}
}

func TestRender(t *testing.T) {
	tab := &Table{
		ID: "EX", Title: "t", Claim: "c",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "2"}},
		Finding: "f",
	}
	out := tab.Render()
	for _, want := range []string{"## EX", "| a", "| 1", "Finding: f"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestDeterministicExperiments(t *testing.T) {
	// Spot-check: E1 and E3 produce identical tables across runs.
	a, b := E1Hitless(9), E1Hitless(9)
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				t.Fatalf("E1 non-deterministic at [%d][%d]", i, j)
			}
		}
	}
}
