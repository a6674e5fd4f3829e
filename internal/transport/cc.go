// Package transport simulates host transport with runtime-swappable
// congestion control — the paper's "live infrastructure customization"
// use case (§1.1): "Deploying new transport protocols ... requires
// changes not only to host kernels but also telemetry and congestion
// control algorithms at the NICs and switches. The optimal choice of CC
// algorithms further depends on the mix of applications and workloads,
// which fluctuate dynamically at runtime."
//
// Flows are window-based senders over the fabric's simulated network.
// The congestion-control algorithm is a pluggable policy object that can
// be swapped while the flow runs (SwapCC) — the transport-level analogue
// of runtime reprogramming a device.
//
// DESIGN.md §2 (S14) inventories the transport; §3 (E6) measures the live CC swap.
package transport

import (
	"math"

	"flexnet/internal/netsim"
)

// CCState is the per-flow state congestion controllers operate on.
type CCState struct {
	// Cwnd is the congestion window in packets.
	Cwnd float64
	// Ssthresh is the slow-start threshold in packets.
	Ssthresh float64
	// BaseRTTNs is the minimum RTT observed (propagation estimate).
	BaseRTTNs float64
	// LastRTTNs is the most recent RTT sample.
	LastRTTNs float64
	// Alpha is DCTCP's EWMA of the ECN-marked fraction.
	Alpha float64
	// ecn bookkeeping for the current window.
	ackedInWindow  float64
	markedInWindow float64
}

// CC is a congestion-control policy. Implementations must be pure
// policy: all mutable state lives in CCState so algorithms can be
// swapped mid-flow without losing window context.
type CC interface {
	// Name identifies the algorithm.
	Name() string
	// Init sets algorithm-specific initial state.
	Init(s *CCState)
	// OnAck processes one new-data acknowledgment. marked reports
	// whether the ACK carried an ECN echo.
	OnAck(s *CCState, rttNs float64, marked bool)
	// OnLoss processes a loss event (timeout or dup-ack).
	OnLoss(s *CCState)
}

// Reno is classic TCP Reno: slow start, AIMD, half on loss. It ignores
// ECN and fills queues — the "before" of the CC-swap experiment.
type Reno struct{}

// Name implements CC.
func (Reno) Name() string { return "reno" }

// Init implements CC.
func (Reno) Init(s *CCState) {
	if s.Cwnd == 0 {
		s.Cwnd = 10
	}
	if s.Ssthresh == 0 {
		s.Ssthresh = 64
	}
}

// OnAck implements CC.
func (Reno) OnAck(s *CCState, rttNs float64, marked bool) {
	if s.Cwnd < s.Ssthresh {
		s.Cwnd++
	} else {
		s.Cwnd += 1 / s.Cwnd
	}
}

// OnLoss implements CC.
func (Reno) OnLoss(s *CCState) {
	s.Ssthresh = math.Max(s.Cwnd/2, 2)
	s.Cwnd = s.Ssthresh
}

// DCTCP reacts proportionally to the fraction of ECN-marked packets,
// keeping switch queues shallow. Requires ECN marking on the bottleneck
// link (netsim.Link.ECNThresholdBytes).
type DCTCP struct {
	// G is the EWMA gain (default 1/16).
	G float64
}

// Name implements CC.
func (DCTCP) Name() string { return "dctcp" }

// Init implements CC.
func (d DCTCP) Init(s *CCState) {
	if s.Cwnd == 0 {
		s.Cwnd = 10
	}
	if s.Ssthresh == 0 {
		s.Ssthresh = 64
	}
	s.Alpha = 1 // conservative start, standard DCTCP
}

func (d DCTCP) gain() float64 {
	if d.G > 0 {
		return d.G
	}
	return 1.0 / 16
}

// OnAck implements CC.
func (d DCTCP) OnAck(s *CCState, rttNs float64, marked bool) {
	s.ackedInWindow++
	if marked {
		s.markedInWindow++
	}
	// Window boundary: one cwnd of ACKs.
	if s.ackedInWindow >= s.Cwnd {
		frac := 0.0
		if s.ackedInWindow > 0 {
			frac = s.markedInWindow / s.ackedInWindow
		}
		g := d.gain()
		s.Alpha = (1-g)*s.Alpha + g*frac
		if s.markedInWindow > 0 {
			s.Cwnd = math.Max(s.Cwnd*(1-s.Alpha/2), 2)
		}
		s.ackedInWindow = 0
		s.markedInWindow = 0
	}
	// Additive increase as in standard DCTCP.
	if s.Cwnd < s.Ssthresh && s.Alpha < 0.01 {
		s.Cwnd++
	} else {
		s.Cwnd += 1 / s.Cwnd
	}
}

// OnLoss implements CC.
func (DCTCP) OnLoss(s *CCState) {
	s.Ssthresh = math.Max(s.Cwnd/2, 2)
	s.Cwnd = s.Ssthresh
}

// rtoFor derives a retransmission timeout from RTT state.
func rtoFor(s *CCState) netsim.Time {
	base := s.LastRTTNs
	if base == 0 {
		base = 1e6 // 1ms before any sample
	}
	rto := netsim.Time(base * 4)
	if rto < netsim.Time(200_000) {
		rto = 200_000
	}
	return rto
}
