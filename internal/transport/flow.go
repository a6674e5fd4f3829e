package transport

import (
	"fmt"

	"flexnet/internal/fabric"
	"flexnet/internal/netsim"
	"flexnet/internal/packet"
)

// MSS is the data payload per packet in bytes.
const MSS = 1000

// tcpECE is the ECN-echo flag bit in "tcp.flags".
const tcpECE = 1 << 6

// Endpoint gives a fabric host transport behaviour: it acknowledges
// arriving data packets (echoing ECN marks) and demultiplexes arriving
// ACKs to its local flows.
type Endpoint struct {
	host  *fabric.Host
	flows map[uint16]*Flow // by source port
	// AckedData counts data packets this endpoint acknowledged.
	AckedData uint64
}

// NewEndpoint attaches transport behaviour to a host.
func NewEndpoint(h *fabric.Host) *Endpoint {
	ep := &Endpoint{host: h, flows: map[uint16]*Flow{}}
	prev := h.Recv
	h.Recv = func(p *packet.Packet) {
		if ep.handle(p) {
			return
		}
		if prev != nil {
			prev(p)
		}
	}
	return ep
}

func (ep *Endpoint) handle(p *packet.Packet) bool {
	if !p.Headers.Has(packet.HeaderTCP) {
		return false
	}
	flags := p.Field("tcp.flags")
	if flags&packet.TCPAck != 0 && p.PayloadLen == 0 {
		// An ACK for one of our flows (their dport is our sport).
		if fl, ok := ep.flows[uint16(p.Field("tcp.dport"))]; ok {
			fl.onAck(p.Field("tcp.ack"), flags&tcpECE != 0)
			return true
		}
		return false
	}
	if p.PayloadLen > 0 {
		// Data: acknowledge, echoing congestion marks.
		ep.AckedData++
		ack := ep.host.Sim().Packets().TCPPacket(0, uint32(p.Field("ipv4.dst")), uint32(p.Field("ipv4.src")),
			uint16(p.Field("tcp.dport")), uint16(p.Field("tcp.sport")),
			packet.TCPAck, 0)
		ack.SetField("tcp.ack", p.Field("tcp.seq"))
		if p.Field("ipv4.ecn") == 3 {
			ack.SetField("tcp.flags", ack.Field("tcp.flags")|tcpECE)
		}
		ep.host.Send(ack)
		return true
	}
	return false
}

// FlowStats summarizes a flow's lifetime.
type FlowStats struct {
	Sent        uint64
	Delivered   uint64
	Retransmits uint64
	Timeouts    uint64
	MarkedAcks  uint64
	// RTT aggregates in nanoseconds.
	MinRTTNs, MaxRTTNs, SumRTTNs uint64
	RTTSamples                   uint64
	// CompletedAt is when the last packet was acknowledged.
	CompletedAt netsim.Time
}

// MeanRTTNs returns the mean RTT.
func (s *FlowStats) MeanRTTNs() uint64 {
	if s.RTTSamples == 0 {
		return 0
	}
	return s.SumRTTNs / s.RTTSamples
}

type sentPkt struct {
	at    netsim.Time
	timer *netsim.Event
	retx  bool
}

// Flow is a window-based sender.
type Flow struct {
	ep    *Endpoint
	sim   *netsim.Sim
	dstIP uint32
	sport uint16
	dport uint16

	cc CC
	st CCState

	// Total is the number of MSS packets to transfer (0 = unlimited).
	Total uint64

	nextSeq  uint64
	inflight map[uint64]*sentPkt
	stats    FlowStats
	done     func(*FlowStats)
	finished bool
}

// NewFlow creates a flow from the endpoint's host toward dstIP:dport.
// sport must be unique per endpoint.
func (ep *Endpoint) NewFlow(dstIP uint32, sport, dport uint16, cc CC) (*Flow, error) {
	if _, dup := ep.flows[sport]; dup {
		return nil, fmt.Errorf("transport: sport %d already in use on %s", sport, ep.host.Name)
	}
	fl := &Flow{
		ep:       ep,
		sim:      ep.host.Sim(),
		dstIP:    dstIP,
		sport:    sport,
		dport:    dport,
		cc:       cc,
		inflight: map[uint64]*sentPkt{},
	}
	cc.Init(&fl.st)
	ep.flows[sport] = fl
	return fl, nil
}

// Start begins transmission. done (optional) fires when Total packets
// have been acknowledged.
func (fl *Flow) Start(done func(*FlowStats)) {
	fl.done = done
	fl.sendMore()
}

// SwapCC replaces the congestion controller mid-flow, preserving window
// state — the transport-level runtime reprogramming primitive. The new
// algorithm's Init only fills algorithm-specific fields it needs.
func (fl *Flow) SwapCC(cc CC) {
	fl.cc = cc
	cc.Init(&fl.st)
}

// Stats returns a copy of the flow statistics.
func (fl *Flow) Stats() FlowStats { return fl.stats }

func (fl *Flow) sendMore() {
	if fl.finished {
		return
	}
	for uint64(len(fl.inflight)) < uint64(fl.st.Cwnd) {
		if fl.Total > 0 && fl.nextSeq >= fl.Total {
			return
		}
		seq := fl.nextSeq
		fl.nextSeq++
		fl.transmit(seq, false)
	}
}

func (fl *Flow) transmit(seq uint64, retx bool) {
	p := fl.sim.Packets().TCPPacket(0, fl.ep.host.IP, fl.dstIP, fl.sport, fl.dport, 0, MSS)
	p.SetField("tcp.seq", seq)
	sp := &sentPkt{at: fl.sim.Now(), retx: retx}
	sp.timer = fl.sim.After(rtoFor(&fl.st), func() { fl.onTimeout(seq) })
	fl.inflight[seq] = sp
	fl.stats.Sent++
	if retx {
		fl.stats.Retransmits++
	}
	fl.ep.host.Send(p)
}

func (fl *Flow) onAck(seq uint64, marked bool) {
	sp, ok := fl.inflight[seq]
	if !ok {
		return // duplicate or late ACK
	}
	sp.timer.Cancel()
	delete(fl.inflight, seq)
	fl.stats.Delivered++
	if marked {
		fl.stats.MarkedAcks++
	}
	// RTT sampling (skip retransmitted packets: Karn's rule).
	if !sp.retx {
		rtt := uint64(fl.sim.Now() - sp.at)
		fl.stats.SumRTTNs += rtt
		fl.stats.RTTSamples++
		if fl.stats.MinRTTNs == 0 || rtt < fl.stats.MinRTTNs {
			fl.stats.MinRTTNs = rtt
		}
		if rtt > fl.stats.MaxRTTNs {
			fl.stats.MaxRTTNs = rtt
		}
		fl.st.LastRTTNs = float64(rtt)
		if fl.st.BaseRTTNs == 0 || float64(rtt) < fl.st.BaseRTTNs {
			fl.st.BaseRTTNs = float64(rtt)
		}
	}
	fl.cc.OnAck(&fl.st, fl.st.LastRTTNs, marked)
	if fl.Total > 0 && fl.stats.Delivered >= fl.Total {
		fl.finish()
		return
	}
	fl.sendMore()
}

func (fl *Flow) onTimeout(seq uint64) {
	if fl.finished {
		return
	}
	if _, ok := fl.inflight[seq]; !ok {
		return
	}
	delete(fl.inflight, seq)
	fl.stats.Timeouts++
	fl.cc.OnLoss(&fl.st)
	fl.transmit(seq, true)
}

func (fl *Flow) finish() {
	if fl.finished {
		return
	}
	fl.finished = true
	fl.stats.CompletedAt = fl.sim.Now()
	// Cancel outstanding timers.
	for _, sp := range fl.inflight {
		sp.timer.Cancel()
	}
	fl.inflight = map[uint64]*sentPkt{}
	if fl.done != nil {
		fl.done(&fl.stats)
	}
}

// Stop halts the flow without completing it.
func (fl *Flow) Stop() { fl.finish() }
