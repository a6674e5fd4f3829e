package dataplane

import (
	"testing"

	"flexnet/internal/apps"
	"flexnet/internal/flexbpf"
)

// BenchmarkInstall measures what one program install costs a device —
// verify, place, build the instance, link, commit — as the executor
// drives it: one PrepareChange + Activate per program, over the six
// builtins the control-plane storm deploys (benchmark/ctl_ops.go), each
// removed again outside the timer.
func BenchmarkInstall(b *testing.B) {
	var progs []*flexbpf.Program
	for _, k := range []struct {
		kind string
		args []uint64
	}{
		{"syn-defense", []uint64{256, 10}},
		{"heavy-hitter", []uint64{2, 128, 1000}},
		{"rate-limiter", []uint64{4, 1000000, 2000000}},
		{"firewall", []uint64{16, 128, 0}},
		{"l2", []uint64{32}},
		{"int", []uint64{1}},
	} {
		p, err := apps.Builtin(k.kind, k.kind, k.args)
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, p)
	}
	d := MustNew(DefaultConfig("sw", ArchDRMT))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog := progs[i%len(progs)]
		pc, err := d.PrepareChange(func(st *StagedConfig) error { return st.Install(prog, nil) })
		if err == nil {
			err = pc.Activate()
		}
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := d.RemoveProgram(prog.Name); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
