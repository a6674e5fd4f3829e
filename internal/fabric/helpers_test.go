package fabric

import "flexnet/internal/flexbpf"

// recircProgram always recirculates (loop-bound test).
func recircProgram() *flexbpf.Program {
	return flexbpf.NewProgram("recirc").
		Do([]flexbpf.Instr{{Op: flexbpf.OpRecirc}}).
		MustBuild()
}

// puntProgram punts everything to the controller.
func puntProgram() *flexbpf.Program {
	return flexbpf.NewProgram("punt").
		Do(flexbpf.NewAsm().Punt().MustBuild()).
		MustBuild()
}

// nowProgram stamps the device clock into meta.now.
func nowProgram() *flexbpf.Program {
	return flexbpf.NewProgram("clockprobe").
		Do(flexbpf.NewAsm().Now(0).StField("meta.now", 0).Ret().MustBuild()).
		MustBuild()
}
