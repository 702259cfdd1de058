package difftest

import (
	"encoding/binary"
	"strings"
	"testing"

	"captive/internal/ssa"
)

// The GA64 user-level lane: its corpus (every mode), its 500-seed sweep
// (50 under -short) and its generator and matrix sanity checks.
func TestCorpus(t *testing.T)                { testCorpus(t, GA64Lane) }
func TestSweep(t *testing.T)                 { testSweep(t, GA64Lane) }
func TestGenerateDeterministic(t *testing.T) { testDeterministic(t, GA64Lane) }
func TestRunMatrixExecutes(t *testing.T)     { testMatrixExecutes(t, GA64Lane) }

// TestStateDiffReporting checks the human-readable diff output names the
// diverging register.
func TestStateDiffReporting(t *testing.T) {
	a := State{Regs: make([]byte, 769), Data: []byte{0}, Instrs: 5}
	b := State{Regs: make([]byte, 769), Data: []byte{0}, Instrs: 5}
	binary.LittleEndian.PutUint64(b.Regs[3*8:], 0xDEAD)
	d := a.Diff(b)
	if d == "" || !strings.Contains(d, "X3") {
		t.Errorf("diff = %q, want mention of X3", d)
	}
	if !a.Equal(a) || a.Equal(b) {
		t.Error("Equal is wrong")
	}
	// An NZCV-only divergence must be reported by name, not as padding.
	c := State{Regs: make([]byte, 776), Data: []byte{0}, Instrs: 5}
	e := State{Regs: make([]byte, 776), Data: []byte{0}, Instrs: 5}
	e.Regs[regLayout().nzcv] = 0b1010
	if d := c.Diff(e); !strings.Contains(d, "NZCV") {
		t.Errorf("diff = %q, want mention of NZCV", d)
	}
}

// TestSVCRoundTrip pins the exception path: a program that is mostly SVCs
// must agree across engines and retire the handler's instructions.
func TestSVCRoundTrip(t *testing.T) {
	p, err := Generate(5, 30)
	if err != nil {
		t.Fatal(err)
	}
	g, err := GA64Lane.Run(p, Golden)
	if err != nil {
		t.Fatal(err)
	}
	out, err := GA64Lane.Run(p, EngineID{Name: "captive", Level: ssa.O4})
	if err != nil {
		t.Fatal(err)
	}
	if !statesEqual(out.States, g.States) {
		t.Fatalf("SVC program diverged: %s", statesDiff(g.States, out.States))
	}
}
