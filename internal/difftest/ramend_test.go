package difftest

import (
	"testing"

	"captive/internal/guest/ga64"
	ga64asm "captive/internal/guest/ga64/asm"
	"captive/internal/guest/rv64"
	"captive/internal/guest/rv64/asm"
)

// Directed accesses that cross the end of guest RAM: the first bytes are
// RAM, the rest are not. Every engine must raise the guest data abort the
// interpreter raises for the whole access, rather than completing it with
// bytes from past the end of RAM. The GA64 handler snapshots the syndrome,
// fault address and return address and halts, so the abort terminates the
// run and its registers are compared across the matrix.

func ramEndHandlerGA64(t *testing.T) []byte {
	t.Helper()
	h := ga64asm.New(HandlerBase)
	h.Mrs(10, ga64.SysESR)
	h.Mrs(11, ga64.SysFAR)
	h.Mrs(12, ga64.SysELR)
	h.Hlt(7)
	himg, err := h.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return himg
}

func TestRAMEndCrossingGA64(t *testing.T) {
	cases := []struct {
		name string
		addr uint64
		emit func(p *ga64asm.Program)
	}{
		{"ldr64", RAMBytes - 4, func(p *ga64asm.Program) { p.Ldr(4, 2, 0) }},
		{"ldr32", RAMBytes - 2, func(p *ga64asm.Program) { p.Ldr32(4, 2, 0) }},
		{"str64", RAMBytes - 4, func(p *ga64asm.Program) { p.Str(5, 2, 0) }},
		{"str16", RAMBytes - 1, func(p *ga64asm.Program) { p.Str16(5, 2, 0) }},
	}
	handler := ramEndHandlerGA64(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := ga64asm.New(Org)
			p.MovI(0, HandlerBase)
			p.Msr(ga64.SysVBAR, 0)
			p.MovI(2, tc.addr)
			p.MovI(5, 0x1122334455667788)
			p.MovI(4, 0xDEAD)
			tc.emit(p)
			p.Hlt(0)
			img, err := p.Assemble()
			if err != nil {
				t.Fatal(err)
			}
			golden := checkDirected(t, GA64Lane, &Program{Seed: -1, Image: img, Handler: handler})[0]
			x := func(n int) uint64 { return leUint64(golden.Regs[regLayout().x+8*n:]) }
			if golden.ExitCode != 7 || x(11) != tc.addr || x(4) != 0xDEAD {
				t.Fatalf("golden: exit=%d far=%#x x4=%#x, want the abort handler's exit 7, far=%#x and x4 unchanged",
					golden.ExitCode, x(11), x(4), tc.addr)
			}
		})
	}
}

func TestRAMEndCrossingRV64(t *testing.T) {
	cases := []struct {
		name  string
		addr  uint64
		cause uint64
		emit  func(p *asm.Program)
	}{
		{"ld", RAMBytes - 4, 5, func(p *asm.Program) { p.Ld(14, 12, 0) }},
		{"lw", RAMBytes - 2, 5, func(p *asm.Program) { p.Lw(14, 12, 0) }},
		{"sd", RAMBytes - 4, 7, func(p *asm.Program) { p.Sd(13, 12, 0) }},
		{"sh", RAMBytes - 1, 7, func(p *asm.Program) { p.Sh(13, 12, 0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := asm.New(RVOrg)
			p.La(15, "trap")
			p.Csrw(rv64.CSRMtvec, 15)
			p.Li(12, tc.addr)
			p.Li(13, 0x1122334455667788)
			p.Li(14, 0xDEAD)
			tc.emit(p)
			p.Ecall()
			// The access-fault handler snapshots the cause, the fault
			// address and the return address, then exits.
			p.Label("trap")
			p.Csrr(10, rv64.CSRMcause)
			p.Csrr(11, rv64.CSRMtval)
			p.Csrr(16, rv64.CSRMepc)
			p.Csrw(rv64.CSRMtvec, asm.X0) // no vector: the ecall exits
			p.Ecall()
			img, err := p.Assemble()
			if err != nil {
				t.Fatal(err)
			}
			golden := checkDirected(t, RV64Lane, &Program{Seed: -1, Image: img})[0]
			if r := goldenRegs(golden); r[10] != tc.cause || r[11] != tc.addr || r[14] != 0xDEAD {
				t.Fatalf("golden: mcause=%d mtval=%#x x14=%#x, want mcause=%d mtval=%#x and x14 unchanged",
					r[10], r[11], r[14], tc.cause, tc.addr)
			}
		})
	}
}
