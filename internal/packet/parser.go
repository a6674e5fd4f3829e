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
}

// newParseGraph creates a parser with the given start state name.
func newParseGraph(start string) *ParseGraph {
	return &ParseGraph{states: make(map[string]*ParseState), start: start}
}

// addState installs a state; a name may be installed once.
func (g *ParseGraph) addState(s *ParseState) {
	if _, ok := g.states[s.Name]; ok {
		panic(fmt.Sprintf("packet: parse state %q already exists", s.Name))
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

// StandardParseGraph returns the infrastructure parser every device
// runs: eth → (vlan) → ipv4 → tcp/udp/drpc, with an optional flexepoch
// shim between eth and the rest. Every call returns the same graph;
// callers must not modify it.
func StandardParseGraph() *ParseGraph { return standardParseGraph }

var standardParseGraph = buildStandardParseGraph()

func buildStandardParseGraph() *ParseGraph {
	g := newParseGraph("start")
	g.addState(&ParseState{Name: "start", Default: "eth"})
	g.addState(&ParseState{Name: "eth", Header: "eth", SelectField: "eth.type"})
	g.addState(&ParseState{Name: "flexepoch", Header: "flexepoch", SelectField: "flexepoch.type"})
	g.addState(&ParseState{Name: "vlan", Header: "vlan", SelectField: "vlan.type"})
	g.addState(&ParseState{Name: "ipv4", Header: "ipv4", SelectField: "ipv4.proto"})
	g.addState(&ParseState{Name: "tcp", Header: "tcp"})
	g.addState(&ParseState{Name: "udp", Header: "udp"})
	g.addState(&ParseState{Name: "drpc", Header: "drpc"})
	g.addTransition("eth", EtherTypeIPv4, "ipv4")
	g.addTransition("eth", EtherTypeVLAN, "vlan")
	g.addTransition("eth", EtherTypeFlexEpoch, "flexepoch")
	g.addTransition("flexepoch", EtherTypeIPv4, "ipv4")
	g.addTransition("flexepoch", EtherTypeVLAN, "vlan")
	g.addTransition("vlan", EtherTypeIPv4, "ipv4")
	g.addTransition("ipv4", ProtoTCP, "tcp")
	g.addTransition("ipv4", ProtoUDP, "udp")
	g.addTransition("ipv4", ProtoDRPC, "drpc")
	return g
}
