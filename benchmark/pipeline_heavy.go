package main

import (
	"fmt"
	"time"

	"flexnet"
	"flexnet/internal/flexbpf"
	"flexnet/internal/packet"
)

// steadyClassifier is the stateless classification program of the
// repository's BenchmarkSteadyStatePipeline (that one lives in a _test
// file, so it is rebuilt here): straight-line field loads and `rounds`
// hash/ALU mixing rounds, no per-flow state, time or randomness. It is
// the flow cache's best case.
func steadyClassifier(name string, rounds int) *flexnet.Program {
	a := flexbpf.NewAsm().
		LdField(1, "ipv4.src").
		LdField(2, "ipv4.dst").
		LdField(3, "tcp.sport").
		LdField(4, "tcp.dport").
		Mov(5, 1)
	for i := 0; i < rounds; i++ {
		a.Hash(5, 5).Xor(5, 2).Add(5, 3).ShlImm(5, 1).Or(5, 4)
	}
	a.StField("meta.mark", 5).Ret()
	return flexnet.NewProgram(name).Headers("eth", "ipv4", "tcp").Do(a.MustBuild()).MustBuild()
}

// pipelineHeavy is "heavy program, one hop": one dRMT switch running
// four ~480-instruction classifiers (~2,000 instructions per packet)
// over 16 TCP flows at 100 kpps each. Linked-program execution dominates
// and the harness cost is small.
var pipelineHeavy = &dpWorkload{
	name: "pipeline_heavy",
	step: 25 * time.Microsecond, // 16 flows x 100 kpps x 25 us = 40 packets
	build: func(seed int64, workers int) (*dpRun, error) {
		const flows = 16
		t0 := time.Now()
		b := flexnet.New(seed).Workers(workers).
			Switch("sw", flexnet.DRMT).Host("dst", "10.0.255.2").Link("sw", "dst")
		for i := 0; i < flows; i++ {
			h := fmt.Sprintf("h%d", i)
			b.Host(h, fmt.Sprintf("10.0.%d.1", i)).Link(h, "sw")
		}
		n, err := b.Build()
		if err != nil {
			return nil, err
		}
		r := &dpRun{net: n, buildMS: msSince(t0), sinks: []string{"dst"}}
		for i := 0; i < 4; i++ {
			uri := fmt.Sprintf("flexnet://bench/steady%d", i)
			if err := deploy(n, uri, []string{"sw"}, steadyClassifier(fmt.Sprintf("cls%d", i), 96)); err != nil {
				return nil, err
			}
		}
		for i := 0; i < flows; i++ {
			f := flowTuple{
				srcHost: fmt.Sprintf("h%d", i), dstHost: "dst",
				sport: uint16(5000 + i), dport: 80, proto: packet.ProtoTCP, payload: tcpPayload64,
			}
			if err := r.addFlow(f, func(s *flexnet.Source) { s.StartCBR(100_000) }); err != nil {
				return nil, err
			}
		}
		return r, nil
	},
}
