package dataplane

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"flexnet/internal/errdefs"
	"flexnet/internal/flexbpf"
	"flexnet/internal/packet"
)

// TestAddHeaderPastChainIsExecError: a linked OpAddHdr that would push
// the header chain past packet.ChainCap is an execution error. The
// packet is dropped and counted in Counters.Errors; the chain keeps the
// headers that fit, in order, and nothing after the failing instruction
// runs.
func TestAddHeaderPastChainIsExecError(t *testing.T) {
	pkt := testPkt(1)
	room := packet.ChainCap - pkt.Headers.Len()
	a := flexbpf.NewAsm()
	var want []string
	for i := 0; i <= room; i++ { // one more than fits
		name := fmt.Sprintf("stack%d", i)
		a.AddHdr(name)
		if i < room {
			want = append(want, name)
		}
	}
	a.MovImm(0, 7).Forward(0)
	d := MustNew(DefaultConfig("sw1", ArchDRMT))
	if err := d.InstallProgram(flexbpf.NewProgram("stacker").Do(a.MustBuild()).MustBuild()); err != nil {
		t.Fatal(err)
	}
	st := d.Process(pkt)
	if st.Verdict != packet.VerdictDrop {
		t.Fatalf("verdict = %v, want drop", st.Verdict)
	}
	if c := d.Stats(); c.Errors != 1 || c.Dropped != 1 || c.Forwarded != 0 {
		t.Fatalf("counters = %+v, want 1 error, 1 drop, 0 forwarded", c)
	}
	want = append([]string{"eth", "ipv4", "tcp"}, want...)
	if got := pkt.Headers.Names(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("chain = %v, want %v", got, want)
	}
	if pkt.EgressPort == 7 {
		t.Fatal("the instructions after the failing add ran")
	}
}

// TestHeaderIDSpaceExhaustedFailsInstall: once every HeaderID is taken,
// a program that names a new header in an OpAddHdr is refused at
// install with ErrVerifyFailed and an error that says why; a program
// naming an interned header still installs. The intern table is
// process-wide, so the test exhausts it in a child process and leaves
// this one's untouched.
func TestHeaderIDSpaceExhaustedFailsInstall(t *testing.T) {
	if os.Getenv("FLEXNET_HEADER_SPACE_CHILD") == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestHeaderIDSpaceExhaustedFailsInstall$", "-test.count=1")
		cmd.Env = append(os.Environ(), "FLEXNET_HEADER_SPACE_CHILD=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("child: %v\n%s", err, out)
		}
		return
	}
	for i := 0; ; i++ {
		if _, err := packet.InternHeader(fmt.Sprintf("filler%d", i)); err != nil {
			if !errors.Is(err, packet.ErrHeaderIDSpace) {
				t.Fatalf("intern: %v", err)
			}
			break
		}
		if i > packet.MaxHeaderIDs {
			t.Fatalf("interned %d header names, past the HeaderID space", i)
		}
	}
	d := MustNew(DefaultConfig("sw1", ArchDRMT))
	adder := flexbpf.NewProgram("adder").Do(flexbpf.NewAsm().AddHdr("one-too-many").MustBuild()).MustBuild()
	if err := d.InstallProgram(adder); !errors.Is(err, errdefs.ErrVerifyFailed) || !strings.Contains(err.Error(), "header ID space exhausted") {
		t.Fatalf("install of a program adding a new header: %v", err)
	}
	known := flexbpf.NewProgram("known").Do(flexbpf.NewAsm().AddHdr("filler0").MovImm(0, 1).Forward(0).MustBuild()).MustBuild()
	if err := d.InstallProgram(known); err != nil {
		t.Fatalf("install of a program adding an interned header: %v", err)
	}
	if st := d.Process(testPkt(1)); st.Verdict != packet.VerdictForward {
		t.Fatalf("verdict = %v, want forward", st.Verdict)
	}
}
