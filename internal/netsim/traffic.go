package netsim

import (
	"math"

	"flexnet/internal/packet"
)

// FlowSpec describes a synthetic flow for workload generation.
type FlowSpec struct {
	Src, Dst         uint32
	SrcPort, DstPort uint16
	Proto            uint64 // packet.ProtoTCP or ProtoUDP
	// PacketLen is the payload bytes per packet.
	PacketLen int
	// VLAN, when nonzero, tags the flow's packets.
	VLAN uint64
}

// Source generates packets of one flow at a node with configurable
// timing, injecting them via a send function (typically wrapping the
// node's device ingress). It takes each packet from the simulator's pool
// and hands it to the send function, which owns it from then on.
type Source struct {
	sim  *Sim
	spec FlowSpec
	emit func(*packet.Packet)
	seq  *uint64

	// Sent counts emitted packets.
	Sent    uint64
	ticker  *Ticker
	stopped bool
}

// NewSource creates a traffic source. seq supplies unique packet IDs
// shared across sources.
func NewSource(sim *Sim, spec FlowSpec, seq *uint64, emit func(*packet.Packet)) *Source {
	return &Source{sim: sim, spec: spec, emit: emit, seq: seq}
}

func (s *Source) buildPacket(flags uint64) *packet.Packet {
	*s.seq++
	id := *s.seq
	var p *packet.Packet
	if pool := s.sim.Packets(); s.spec.Proto == packet.ProtoUDP {
		p = pool.UDPPacket(id, s.spec.Src, s.spec.Dst, s.spec.SrcPort, s.spec.DstPort, s.spec.PacketLen)
	} else {
		p = pool.TCPPacket(id, s.spec.Src, s.spec.Dst, s.spec.SrcPort, s.spec.DstPort, flags, s.spec.PacketLen)
	}
	if s.spec.VLAN != 0 {
		// It cannot fail: the chain holds three headers of
		// packet.ChainCap, none of them vlan.
		_ = p.TagVLAN(s.spec.VLAN)
	}
	return p
}

// EmitOne sends a single packet immediately with the given TCP flags.
func (s *Source) EmitOne(flags uint64) {
	s.Sent++
	s.emit(s.buildPacket(flags))
}

// StartCBR emits packets at a constant rate (packets/sec) until Stop.
func (s *Source) StartCBR(pps float64) {
	if pps <= 0 {
		return
	}
	period := Time(1e9 / pps)
	if period <= 0 {
		period = 1
	}
	s.ticker = s.sim.Every(period, func() {
		s.Sent++
		s.emit(s.buildPacket(0))
	})
}

// StartPoisson emits packets with exponential inter-arrival times at the
// given mean rate until Stop.
func (s *Source) StartPoisson(pps float64) {
	if pps <= 0 {
		return
	}
	var next func(*packet.Packet, int)
	next = func(*packet.Packet, int) {
		if s.stopped {
			return
		}
		s.Sent++
		s.emit(s.buildPacket(0))
		gap := Time(s.sim.Rand().ExpFloat64() / pps * 1e9)
		if gap <= 0 {
			gap = 1
		}
		s.sim.AtPacket(s.sim.Now()+gap, next, nil, 0)
	}
	gap := Time(s.sim.Rand().ExpFloat64() / pps * 1e9)
	s.sim.AtPacket(s.sim.Now()+gap, next, nil, 0)
}

// Stop halts the source.
func (s *Source) Stop() {
	s.stopped = true
	if s.ticker != nil {
		s.ticker.Stop()
	}
}

// SineRateSource modulates packet rate sinusoidally between min and max
// pps with the given period — the attack-intensity waveform used by the
// elastic security experiment.
type SineRateSource struct {
	src            *Source
	sim            *Sim
	minPPS, maxPPS float64
	period         Time
	tick           Time
	stopped        bool
}

// NewSineRate wraps a source with a sinusoidal rate envelope. tick is
// how often the rate is re-evaluated.
func NewSineRate(src *Source, minPPS, maxPPS float64, period, tick Time) *SineRateSource {
	return &SineRateSource{src: src, sim: src.sim, minPPS: minPPS, maxPPS: maxPPS, period: period, tick: tick}
}

// RateAt returns the target rate at time t.
func (w *SineRateSource) RateAt(t Time) float64 {
	phase := 2 * math.Pi * float64(t%w.period) / float64(w.period)
	return w.minPPS + (w.maxPPS-w.minPPS)*(0.5-0.5*math.Cos(phase))
}

// Start begins emission.
func (w *SineRateSource) Start() {
	emit := func(*packet.Packet, int) {
		if !w.stopped {
			w.src.Sent++
			w.src.emit(w.src.buildPacket(packet.TCPSyn))
		}
	}
	var loop func(*packet.Packet, int)
	loop = func(*packet.Packet, int) {
		if w.stopped {
			return
		}
		now := w.sim.Now()
		rate := w.RateAt(now)
		// Emit a burst matching rate×tick, spread uniformly.
		n := int(rate * float64(w.tick) / 1e9)
		for i := 0; i < n; i++ {
			off := Time(float64(w.tick) * float64(i) / float64(n+1))
			w.sim.AtPacket(now+off, emit, nil, 0)
		}
		w.sim.AtPacket(now+w.tick, loop, nil, 0)
	}
	w.sim.AtPacket(w.sim.Now(), loop, nil, 0)
}

// Stop halts emission.
func (w *SineRateSource) Stop() { w.stopped = true }
