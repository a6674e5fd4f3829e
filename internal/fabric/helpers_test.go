package fabric

import "flexnet/internal/flexbpf"

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
