package difftest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"

	"captive/internal/guest/ga64"
	"captive/internal/ssa"
)

// EngineID names one engine/optimization-level configuration under test.
type EngineID struct {
	Name  string // "interp", "captive", "qemu"
	Level ssa.OptLevel
}

func (id EngineID) String() string { return fmt.Sprintf("%s/O%d", id.Name, id.Level) }

// Golden is the reference configuration every other run is compared to.
var Golden = EngineID{Name: "interp", Level: ssa.O4}

// Configs returns the engine matrix: the golden interpreter, the
// interpreter at O1 (offline-optimizer differential inside one engine), the
// Captive DBT at every offline level, and the QEMU-style baseline at O4.
func Configs() []EngineID {
	return []EngineID{
		{Name: "interp", Level: ssa.O1},
		{Name: "captive", Level: ssa.O1},
		{Name: "captive", Level: ssa.O2},
		{Name: "captive", Level: ssa.O3},
		{Name: "captive", Level: ssa.O4},
		{Name: "qemu", Level: ssa.O4},
	}
}

// State is the engine-independent architectural state extracted after a run.
// Two engines executed a program identically iff their States are equal.
type State struct {
	Regs     []byte   // register file below the PC slot: X, VL, VH, NZCV
	Data     []byte   // the probed data windows
	CSRs     []uint64 // system-register snapshot (RV64 sys lane; nil otherwise)
	Instrs   uint64   // retired guest instructions
	ExitCode uint64
	RV64     bool // state from an RV64 lane (register naming in Diff)
}

// Equal reports whether two states are bit-identical.
func (s State) Equal(o State) bool {
	if len(s.CSRs) != len(o.CSRs) {
		return false
	}
	for i := range s.CSRs {
		if s.CSRs[i] != o.CSRs[i] {
			return false
		}
	}
	return s.Instrs == o.Instrs && s.ExitCode == o.ExitCode &&
		bytes.Equal(s.Regs, o.Regs) && bytes.Equal(s.Data, o.Data)
}

// Diff describes the first difference between two states ("" when equal).
func (s State) Diff(o State) string {
	var sb strings.Builder
	if s.ExitCode != o.ExitCode {
		fmt.Fprintf(&sb, "exit code %#x vs %#x; ", s.ExitCode, o.ExitCode)
	}
	if s.Instrs != o.Instrs {
		fmt.Fprintf(&sb, "instr count %d vs %d; ", s.Instrs, o.Instrs)
	}
	nzcv := regLayoutNZCV(s.RV64)
	name := regName
	if s.RV64 {
		name = func(off int) string { return fmt.Sprintf("x%d", off/8) }
	}
	for i := 0; i+8 <= nzcv && i+8 <= len(s.Regs) && i+8 <= len(o.Regs); i += 8 {
		a := binary.LittleEndian.Uint64(s.Regs[i:])
		b := binary.LittleEndian.Uint64(o.Regs[i:])
		if a != b {
			fmt.Fprintf(&sb, "%s=%#x vs %#x; ", name(i), a, b)
		}
	}
	if len(s.Regs) > nzcv && len(o.Regs) > nzcv && s.Regs[nzcv] != o.Regs[nzcv] {
		fmt.Fprintf(&sb, "NZCV=%04b vs %04b; ", s.Regs[nzcv], o.Regs[nzcv])
	}
	for i := range s.Data {
		if i < len(o.Data) && s.Data[i] != o.Data[i] {
			fmt.Fprintf(&sb, "mem[probe+%#x]=%#x vs %#x; ", i, s.Data[i], o.Data[i])
			break
		}
	}
	for i := range s.CSRs {
		if i < len(o.CSRs) && s.CSRs[i] != o.CSRs[i] {
			fmt.Fprintf(&sb, "%s=%#x vs %#x; ", rvsysCSRName(i), s.CSRs[i], o.CSRs[i])
		}
	}
	return strings.TrimSuffix(sb.String(), "; ")
}

// layout holds the GA64 register-file bank offsets, taken from the built
// module so diff reporting can never drift from the layout gen.Build
// actually computed.
type layout struct {
	x, vl, vh, nzcv int
}

var (
	layoutOnce sync.Once
	layoutVal  layout
)

func regLayout() layout {
	layoutOnce.Do(func() {
		reg := ga64.MustModule().Registry
		layoutVal = layout{
			x:    reg.Bank("X").Offset,
			vl:   reg.Bank("VL").Offset,
			vh:   reg.Bank("VH").Offset,
			nzcv: reg.Bank("NZCV").Offset,
		}
	})
	return layoutVal
}

// regLayoutNZCV returns the flags-byte offset for the lane's register file.
func regLayoutNZCV(rv bool) int {
	if rv {
		return rv64NZCVOff()
	}
	return regLayout().nzcv
}

// regName maps a register-file byte offset to a friendly name.
func regName(off int) string {
	l := regLayout()
	switch {
	case off >= l.nzcv:
		return "NZCV"
	case off >= l.vh:
		return fmt.Sprintf("VH%d", (off-l.vh)/8)
	case off >= l.vl:
		return fmt.Sprintf("VL%d", (off-l.vl)/8)
	default:
		return fmt.Sprintf("X%d", (off-l.x)/8)
	}
}

// stepLimit bounds interpreter runs; cycleBudget bounds DBT runs
// (deci-cycles of the simulated host clock). Generated programs are short
// and always halt; these limits only catch harness or model bugs.
const (
	stepLimit   = 2_000_000
	cycleBudget = 4_000_000_000
)

var nopWord = ga64.EncS(ga64.OpNop, 0, 0, 0)
