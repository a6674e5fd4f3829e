package packet

import (
	"fmt"
	"sort"
)

// ParseGraph is a programmable parser: a state machine whose states
// extract headers and whose transitions select the next state from a
// field of the just-extracted header. This mirrors P4 parsers, and — key
// to the paper — is *runtime modifiable*: states and transitions can be
// added and removed while the device serves traffic (§2: "Parser states
// can be similarly manipulated to add and remove header types").
//
// ParseGraph methods are not safe for concurrent mutation with parsing;
// the runtime engine serializes reconfiguration against packet
// processing, exactly as the hardware does with its atomic update unit.
type ParseGraph struct {
	states map[string]*ParseState
	start  string
}

// ParseState extracts one header and selects a successor.
type ParseState struct {
	// Name identifies the state.
	Name string
	// Header is the header type extracted in this state ("" for states
	// that only branch, such as the start state).
	Header string
	// SelectField is the field whose value picks the transition
	// ("hdr.field"). Empty means unconditional transition via Default.
	SelectField string
	// Transitions maps select-field values to next state names.
	Transitions map[uint64]string
	// Default is the next state when no transition matches; "" accepts.
	Default string
}

// NewParseGraph creates a parser with the given start state name.
func NewParseGraph(start string) *ParseGraph {
	return &ParseGraph{states: make(map[string]*ParseState), start: start}
}

// Clone returns a deep copy; the runtime engine uses copy-on-write graphs
// so an in-progress parse never observes a half-applied change.
func (g *ParseGraph) Clone() *ParseGraph {
	ng := &ParseGraph{states: make(map[string]*ParseState, len(g.states)), start: g.start}
	for name, st := range g.states {
		ns := &ParseState{
			Name:        st.Name,
			Header:      st.Header,
			SelectField: st.SelectField,
			Default:     st.Default,
			Transitions: make(map[uint64]string, len(st.Transitions)),
		}
		for k, v := range st.Transitions {
			ns.Transitions[k] = v
		}
		ng.states[name] = ns
	}
	return ng
}

// AddState installs a state. Replacing an existing state is an error;
// runtime changes must remove first so that intent is explicit.
func (g *ParseGraph) AddState(s *ParseState) error {
	if _, ok := g.states[s.Name]; ok {
		return fmt.Errorf("packet: parse state %q already exists", s.Name)
	}
	if s.Transitions == nil {
		s.Transitions = map[uint64]string{}
	}
	g.states[s.Name] = s
	return nil
}

// RemoveState deletes a state. It is an error if any other state still
// transitions to it, so a runtime change cannot sever live paths.
func (g *ParseGraph) RemoveState(name string) error {
	if _, ok := g.states[name]; !ok {
		return fmt.Errorf("packet: parse state %q not found", name)
	}
	if name == g.start {
		return fmt.Errorf("packet: cannot remove start state %q", name)
	}
	for _, st := range g.states {
		if st.Default == name {
			return fmt.Errorf("packet: state %q is default target of %q", name, st.Name)
		}
		for _, next := range st.Transitions {
			if next == name {
				return fmt.Errorf("packet: state %q is a transition target of %q", name, st.Name)
			}
		}
	}
	delete(g.states, name)
	return nil
}

// AddTransition adds value→next to state's select table.
func (g *ParseGraph) AddTransition(state string, value uint64, next string) error {
	st, ok := g.states[state]
	if !ok {
		return fmt.Errorf("packet: parse state %q not found", state)
	}
	if _, ok := g.states[next]; !ok && next != "" {
		return fmt.Errorf("packet: transition target %q not found", next)
	}
	if _, dup := st.Transitions[value]; dup {
		return fmt.Errorf("packet: state %q already has transition for %#x", state, value)
	}
	st.Transitions[value] = next
	return nil
}

// RemoveTransition removes the transition for value from state.
func (g *ParseGraph) RemoveTransition(state string, value uint64) error {
	st, ok := g.states[state]
	if !ok {
		return fmt.Errorf("packet: parse state %q not found", state)
	}
	if _, ok := st.Transitions[value]; !ok {
		return fmt.Errorf("packet: state %q has no transition for %#x", state, value)
	}
	delete(st.Transitions, value)
	return nil
}

// States returns state names in sorted order.
func (g *ParseGraph) States() []string {
	out := make([]string, 0, len(g.states))
	for k := range g.states {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// State returns the named state, or nil.
func (g *ParseGraph) State(name string) *ParseState { return g.states[name] }

// NumStates returns the number of parser states, which counts against a
// device's parser resource budget.
func (g *ParseGraph) NumStates() int { return len(g.states) }

// Validate checks structural sanity: the start state exists, every
// transition target exists, every non-branch state names a known header,
// and the graph is acyclic (parsers must terminate).
func (g *ParseGraph) Validate() error {
	if _, ok := g.states[g.start]; !ok {
		return fmt.Errorf("packet: start state %q not found", g.start)
	}
	for name, st := range g.states {
		if st.Header != "" {
			if _, ok := headerSpecs[st.Header]; !ok {
				return fmt.Errorf("packet: state %q extracts unknown header %q", name, st.Header)
			}
		}
		targets := make([]string, 0, len(st.Transitions)+1)
		for _, t := range st.Transitions {
			targets = append(targets, t)
		}
		targets = append(targets, st.Default)
		for _, t := range targets {
			if t == "" {
				continue
			}
			if _, ok := g.states[t]; !ok {
				return fmt.Errorf("packet: state %q targets unknown state %q", name, t)
			}
		}
	}
	// Cycle check via DFS coloring.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int, len(g.states))
	var visit func(string) error
	visit = func(name string) error {
		if name == "" {
			return nil
		}
		switch color[name] {
		case gray:
			return fmt.Errorf("packet: parse graph cycle through %q", name)
		case black:
			return nil
		}
		color[name] = gray
		st := g.states[name]
		for _, t := range st.Transitions {
			if err := visit(t); err != nil {
				return err
			}
		}
		if err := visit(st.Default); err != nil {
			return err
		}
		color[name] = black
		return nil
	}
	return visit(g.start)
}

// Parse runs the state machine over src, populating p. It returns the
// unconsumed remainder as payload length.
func (g *ParseGraph) Parse(src []byte, p *Packet) error {
	state := g.start
	for state != "" {
		st, ok := g.states[state]
		if !ok {
			return fmt.Errorf("packet: parse reached unknown state %q", state)
		}
		if st.Header != "" {
			var err error
			src, err = DecodeHeader(src, st.Header, p)
			if err != nil {
				return err
			}
		}
		state = st.next(p)
	}
	p.PayloadLen = len(src)
	return nil
}

// CheckFields walks the state machine over a packet that already has a
// PHV (no wire bytes), following its header chain until the packet stops
// carrying the header a state expects. It fails only on reaching a state
// the graph lacks, which Validate rules out; a device therefore never
// walks the graph per packet, since every graph it commits has validated.
func (g *ParseGraph) CheckFields(p *Packet) error {
	state := g.start
	idx := 0
	for state != "" {
		st, ok := g.states[state]
		if !ok {
			return fmt.Errorf("packet: parse reached unknown state %q", state)
		}
		if st.Header != "" {
			if idx >= len(p.Headers) || p.Headers[idx] != st.Header {
				return nil
			}
			idx++
		}
		state = st.next(p)
	}
	return nil
}

// next is the state after st: the transition its select field's value in
// p picks, or Default when p lacks the field or no transition matches.
func (st *ParseState) next(p *Packet) string {
	if st.SelectField != "" {
		if v, ok := p.FieldOK(st.SelectField); ok {
			if next, ok := st.Transitions[v]; ok {
				return next
			}
		}
	}
	return st.Default
}

// StandardParseGraph builds the default infrastructure parser:
// eth → (vlan) → ipv4 → tcp/udp/drpc, with an optional flexepoch shim
// between eth and the rest.
func StandardParseGraph() *ParseGraph {
	g := NewParseGraph("start")
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(g.AddState(&ParseState{Name: "start", Default: "eth"}))
	must(g.AddState(&ParseState{Name: "eth", Header: "eth", SelectField: "eth.type"}))
	must(g.AddState(&ParseState{Name: "flexepoch", Header: "flexepoch", SelectField: "flexepoch.type"}))
	must(g.AddState(&ParseState{Name: "vlan", Header: "vlan", SelectField: "vlan.type"}))
	must(g.AddState(&ParseState{Name: "ipv4", Header: "ipv4", SelectField: "ipv4.proto"}))
	must(g.AddState(&ParseState{Name: "tcp", Header: "tcp"}))
	must(g.AddState(&ParseState{Name: "udp", Header: "udp"}))
	must(g.AddState(&ParseState{Name: "drpc", Header: "drpc"}))
	must(g.AddTransition("eth", EtherTypeIPv4, "ipv4"))
	must(g.AddTransition("eth", EtherTypeVLAN, "vlan"))
	must(g.AddTransition("eth", EtherTypeFlexEpoch, "flexepoch"))
	must(g.AddTransition("flexepoch", EtherTypeIPv4, "ipv4"))
	must(g.AddTransition("flexepoch", EtherTypeVLAN, "vlan"))
	must(g.AddTransition("vlan", EtherTypeIPv4, "ipv4"))
	must(g.AddTransition("ipv4", ProtoTCP, "tcp"))
	must(g.AddTransition("ipv4", ProtoUDP, "udp"))
	must(g.AddTransition("ipv4", ProtoDRPC, "drpc"))
	return g
}
