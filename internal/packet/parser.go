package packet

import "fmt"

// ParseGraph is a parser: a state machine whose states extract headers
// and whose transitions select the next state from a field of the
// just-extracted header, as a P4 parser does. Every device shares the one
// graph StandardParseGraph returns; it is built at package init and is
// read-only, so the wire codec and the benchmark probes may walk it from
// any goroutine.
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

	// spec is Header's layout, resolved when the state is added.
	spec *headerSpec
}

// newParseGraph creates a parser with the given start state name.
func newParseGraph(start string) *ParseGraph {
	return &ParseGraph{states: make(map[string]*ParseState), start: start}
}

// addState installs a state; a name may be installed once, and its
// header must be a registered one.
func (g *ParseGraph) addState(s *ParseState) {
	if _, ok := g.states[s.Name]; ok {
		panic(fmt.Sprintf("packet: parse state %q already exists", s.Name))
	}
	if s.Header != "" {
		if s.spec = specNamed(s.Header); s.spec == nil {
			panic(fmt.Sprintf("packet: parse state %q extracts unknown header %q", s.Name, s.Header))
		}
	}
	if s.Transitions == nil {
		s.Transitions = map[uint64]string{}
	}
	g.states[s.Name] = s
}

// addTransition adds value→next to state's select table; both states
// must exist and the value must be new.
func (g *ParseGraph) addTransition(state string, value uint64, next string) {
	st, ok := g.states[state]
	if !ok {
		panic(fmt.Sprintf("packet: parse state %q not found", state))
	}
	if _, ok := g.states[next]; !ok {
		panic(fmt.Sprintf("packet: transition target %q not found", next))
	}
	if _, dup := st.Transitions[value]; dup {
		panic(fmt.Sprintf("packet: state %q already has transition for %#x", state, value))
	}
	st.Transitions[value] = next
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
		if st.spec != nil {
			var err error
			if src, err = st.spec.decode(src, p); err != nil {
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
// the graph lacks, which the standard graph never does
// (TestStandardParseGraphWellFormed); a device therefore never walks the
// graph per packet.
func (g *ParseGraph) CheckFields(p *Packet) error {
	state := g.start
	idx := 0
	for state != "" {
		st, ok := g.states[state]
		if !ok {
			return fmt.Errorf("packet: parse reached unknown state %q", state)
		}
		if st.spec != nil {
			if idx >= p.Headers.Len() || p.Headers.At(idx) != st.spec.id {
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

// StandardParseGraph returns the infrastructure parser every device
// runs: eth → (vlan) → ipv4 → tcp/udp/drpc. Every call returns the same
// graph; callers must not modify it.
func StandardParseGraph() *ParseGraph { return standardParseGraph }

var standardParseGraph = buildStandardParseGraph()

func buildStandardParseGraph() *ParseGraph {
	g := newParseGraph("start")
	g.addState(&ParseState{Name: "start", Default: "eth"})
	g.addState(&ParseState{Name: "eth", Header: specEthernet.name, SelectField: "eth.type"})
	g.addState(&ParseState{Name: "vlan", Header: specVLAN.name, SelectField: "vlan.type"})
	g.addState(&ParseState{Name: "ipv4", Header: specIPv4.name, SelectField: "ipv4.proto"})
	g.addState(&ParseState{Name: "tcp", Header: specTCP.name})
	g.addState(&ParseState{Name: "udp", Header: specUDP.name})
	g.addState(&ParseState{Name: "drpc", Header: specDRPC.name})
	g.addTransition("eth", EtherTypeIPv4, "ipv4")
	g.addTransition("eth", EtherTypeVLAN, "vlan")
	g.addTransition("vlan", EtherTypeIPv4, "ipv4")
	g.addTransition("ipv4", ProtoTCP, "tcp")
	g.addTransition("ipv4", ProtoUDP, "udp")
	g.addTransition("ipv4", ProtoDRPC, "drpc")
	return g
}
