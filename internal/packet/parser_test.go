package packet

import "testing"

// TestStandardParseGraphWellFormed: the one graph every device runs is
// well formed — its start state exists, every transition and default
// names a state it has, every state that extracts a header extracts one
// with a wire layout, it is acyclic (a parse terminates) and every state
// is reachable from the start — and every call returns that same graph.
func TestStandardParseGraphWellFormed(t *testing.T) {
	g := StandardParseGraph()
	if StandardParseGraph() != g {
		t.Fatal("StandardParseGraph returned two different graphs")
	}
	if _, ok := g.states[g.start]; !ok {
		t.Fatalf("start state %q missing", g.start)
	}
	for name, st := range g.states {
		if st.Name != name {
			t.Errorf("state %q is registered as %q", st.Name, name)
		}
		if st.Header != "" && HeaderBytes(st.Header) <= 0 {
			t.Errorf("state %q extracts header %q, which has no wire layout", name, st.Header)
		}
		targets := []string{st.Default}
		for _, next := range st.Transitions {
			targets = append(targets, next)
		}
		for _, next := range targets {
			if _, ok := g.states[next]; next != "" && !ok {
				t.Errorf("state %q targets missing state %q", name, next)
			}
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	// color is 0 for a state not yet visited.
	const (
		onPath = iota + 1
		done
	)
	color := map[string]int{}
	var visit func(name string)
	visit = func(name string) {
		if name == "" {
			return
		}
		switch color[name] {
		case onPath:
			t.Fatalf("parse graph cycle through %q", name)
		case done:
			return
		}
		color[name] = onPath
		st := g.states[name]
		for _, next := range st.Transitions {
			visit(next)
		}
		visit(st.Default)
		color[name] = done
	}
	visit(g.start)
	for name := range g.states {
		if color[name] != done {
			t.Errorf("state %q unreachable from %q", name, g.start)
		}
	}
}
