package main

import (
	"time"

	"flexnet"
	"flexnet/internal/packet"
)

// fabricLight is "light program, many hops": a k=4 fat-tree running base
// routing only, every host sending 64-byte UDP at a constant 50 kpps to
// the host eight positions on, which is in another pod (5 device hops).
// The simulator, the fabric hop and packet construction do nearly all
// the work here and the interpreter almost none.
var fabricLight = &dpWorkload{
	name: "fabric_light",
	step: 50 * time.Microsecond, // 16 flows x 50 kpps x 50 us = 40 packets
	build: func(seed int64, workers int) (*dpRun, error) {
		t0 := time.Now()
		n, err := flexnet.New(seed).Workers(workers).Topo("fat-tree:k=4").Build()
		if err != nil {
			return nil, err
		}
		r := &dpRun{net: n, buildMS: msSince(t0)}
		hosts := n.Fabric().Hosts()
		for i, h := range hosts {
			f := flowTuple{
				srcHost: h, dstHost: hosts[(i+len(hosts)/2)%len(hosts)],
				sport: uint16(4000 + i), dport: 9000, proto: packet.ProtoUDP, payload: udpPayload64,
			}
			if err := r.addFlow(f, func(s *flexnet.Source) { s.StartCBR(50_000) }); err != nil {
				return nil, err
			}
		}
		r.sinks = hosts
		return r, nil
	},
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
