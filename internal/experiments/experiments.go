// Package experiments implements the FlexNet evaluation suite.
//
// The HotNets '21 paper is a vision paper with no evaluation section, so
// there are no tables or figures to replicate number-for-number.
// Instead, every *claim* and *use case* in the paper is turned into a
// measurable experiment with the baselines the paper argues against.
// DESIGN.md carries the experiment index (E1..E15 with paper sections);
// EXPERIMENTS.md records claim-vs-measured for each.
//
// All experiments are deterministic: same seed, same numbers.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"flexnet/internal/fabric"
)

// Table is one experiment's result in printable form.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper text being tested
	Columns []string
	Rows    [][]string
	// Finding is the one-line outcome summary.
	Finding string
}

// Render formats the table for terminals and EXPERIMENTS.md.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "Claim (paper): %s\n\n", t.Claim)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		b.WriteString("|")
		for i, c := range cells {
			fmt.Fprintf(&b, " %-*s |", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Columns)
	b.WriteString("|")
	for _, w := range widths {
		b.WriteString(strings.Repeat("-", w+2) + "|")
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		line(row)
	}
	if t.Finding != "" {
		fmt.Fprintf(&b, "\nFinding: %s\n", t.Finding)
	}
	return b.String()
}

// ns formats nanoseconds human-readably.
func ns(v uint64) string {
	switch {
	case v >= 1_000_000_000:
		return fmt.Sprintf("%.2fs", float64(v)/1e9)
	case v >= 1_000_000:
		return fmt.Sprintf("%.2fms", float64(v)/1e6)
	case v >= 1_000:
		return fmt.Sprintf("%.2fµs", float64(v)/1e3)
	default:
		return fmt.Sprintf("%dns", v)
	}
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func d(v uint64) string   { return fmt.Sprintf("%d", v) }
func di(v int) string     { return fmt.Sprintf("%d", v) }

// Experiment is one entry of the suite: its ID and its runner.
type Experiment struct {
	ID  string
	Run func(seed int64) *Table
}

// Suite lists every experiment in report order. All, cmd/flexbench and
// EXPERIMENTS.md generation read it.
var Suite = []Experiment{
	{"E1", E1Hitless},
	{"E2", E2ReconfigLatency},
	{"E3", E3Consistency},
	{"E4", E4DynamicApps},
	{"E5", E5SecurityElastic},
	{"E6", E6CCSwap},
	{"E7", E7TenantChurn},
	{"E8", E8FungibleCompile},
	{"E9", E9Incremental},
	{"E10", E10TableMerge},
	{"E11", E11StateMigration},
	{"E12", E12FaultTolerance},
	{"E13", E13Energy},
	{"E14", E14DRPC},
	{"E15", E15FaultRecovery},
	{"E16", E16ScaleOut},
	{"E17", E17FastPath},
	{"E18", E18ControlPlane},
	{"E19", E19SpecReconcile},
	{"E20", E20HAFailover},
}

// All runs every experiment of the Suite at seed and returns the tables
// in order.
func All(seed int64) []*Table {
	out := make([]*Table, 0, len(Suite))
	for _, e := range Suite {
		out = append(out, e.Run(seed))
	}
	return out
}

// await starts a control-plane op and runs the simulator in steps of
// step until the op's completion callback fires. It panics if the op
// fails or has not completed after 2000 steps.
func await(f *fabric.Fabric, step time.Duration, op func(done func(error))) {
	settled := false
	op(func(err error) {
		if err != nil {
			panic(err)
		}
		settled = true
	})
	for i := 0; i < 2000 && !settled; i++ {
		f.Sim.RunFor(step)
	}
	if !settled {
		panic("experiments: control-plane op never completed")
	}
}
