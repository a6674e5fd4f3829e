package netsim

import (
	"math"
	"slices"

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
// node's device ingress).
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
	if s.spec.Proto == packet.ProtoUDP {
		p = packet.UDPPacket(id, s.spec.Src, s.spec.Dst, s.spec.SrcPort, s.spec.DstPort, s.spec.PacketLen)
	} else {
		p = packet.TCPPacket(id, s.spec.Src, s.spec.Dst, s.spec.SrcPort, s.spec.DstPort, flags, s.spec.PacketLen)
	}
	if s.spec.VLAN != 0 {
		// Insert the VLAN tag between eth and ipv4.
		p.SetField("eth.type", packet.EtherTypeVLAN)
		hdrs := []string{"eth", "vlan"}
		for _, h := range p.Headers {
			if h != "eth" {
				hdrs = append(hdrs, h)
			}
		}
		p.Headers = hdrs
		p.SetField("vlan.vid", s.spec.VLAN)
		p.SetField("vlan.type", packet.EtherTypeIPv4)
	}
	p.StampSent(uint64(s.sim.Now()))
	return p
}

// EmitOne sends a single packet immediately with the given TCP flags.
func (s *Source) EmitOne(flags uint64) *packet.Packet {
	p := s.buildPacket(flags)
	s.Sent++
	s.emit(p)
	return p
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

// LatencySink consumes packets and accumulates delivery statistics.
type LatencySink struct {
	sim *Sim
	// Received counts packets; bytes too.
	Received uint64
	Bytes    uint64
	// latencies in nanoseconds for percentile computation.
	lats []uint64
}

// NewLatencySink creates a sink bound to sim.
func NewLatencySink(sim *Sim) *LatencySink { return &LatencySink{sim: sim} }

// Consume records one delivered packet, and its latency if the packet
// was stamped when sent (packet.StampSent).
func (k *LatencySink) Consume(p *packet.Packet) {
	k.Received++
	k.Bytes += uint64(p.Len())
	if p.HasSentAt {
		k.lats = append(k.lats, uint64(k.sim.Now())-p.SentAt)
	}
}

// Percentile returns the q-quantile (0..1) of observed latencies in ns.
func (k *LatencySink) Percentile(q float64) uint64 {
	if len(k.lats) == 0 {
		return 0
	}
	s := append([]uint64(nil), k.lats...)
	slices.Sort(s)
	idx := int(q * float64(len(s)-1))
	return s[idx]
}

// Mean returns the mean latency in ns.
func (k *LatencySink) Mean() uint64 {
	if len(k.lats) == 0 {
		return 0
	}
	var sum uint64
	for _, v := range k.lats {
		sum += v
	}
	return sum / uint64(len(k.lats))
}

// TimeSeries accumulates (time, value) samples for experiment output.
type TimeSeries struct {
	Name   string
	Times  []Time
	Values []float64
}

// Add appends a sample.
func (ts *TimeSeries) Add(t Time, v float64) {
	ts.Times = append(ts.Times, t)
	ts.Values = append(ts.Values, v)
}

// Max returns the maximum value (0 for empty series).
func (ts *TimeSeries) Max() float64 {
	m := 0.0
	for _, v := range ts.Values {
		if v > m {
			m = v
		}
	}
	return m
}

// Mean returns the mean value (0 for empty series).
func (ts *TimeSeries) Mean() float64 {
	if len(ts.Values) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range ts.Values {
		s += v
	}
	return s / float64(len(ts.Values))
}

// Sample periodically records fn's value into a TimeSeries until the
// simulation ends.
func Sample(sim *Sim, ts *TimeSeries, every Time, fn func() float64) *Ticker {
	return sim.Every(every, func() {
		ts.Add(sim.Now(), fn())
	})
}
