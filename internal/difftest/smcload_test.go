package difftest

import (
	"encoding/binary"
	"testing"

	"captive/internal/guest/ga64"
	ga64asm "captive/internal/guest/ga64/asm"
	"captive/internal/guest/rv64/asm"
)

// Directed load-then-store self-modifying code: the guest first *reads* an
// instruction word of a translated routine, then overwrites it and calls
// the routine again. On Captive the load installs a read-only host mapping
// of the write-protected code page and fills the VX64 TLB with it; the store
// must then invalidate the page, reinstall the mapping writable *and* drop
// that TLB entry, or it re-faults on the stale read-only entry until the
// cycle budget runs out. Every engine must agree with the interpreter (the
// GA64 program through the SMC lane, which also requires both DBT engines
// to retire an SMC invalidation), and the golden run must show both the
// loaded old word and the new code.

func TestSMCLoadThenStoreGA64(t *testing.T) {
	oldWord := ga64.EncMOVW(ga64.OpMovz, 4, 0, 1)
	newWord := ga64.EncMOVW(ga64.OpMovz, 4, 0, 2)
	p := ga64asm.New(Org)
	p.Adr(2, "patch")
	p.BL("patch") // translate the page and run the old code
	p.Mov(6, 4)
	p.Ldr32(3, 2, 0) // read-only host mapping of the protected code page
	p.MovI(5, uint64(newWord))
	p.Str32(5, 2, 0) // SMC store through that mapping
	p.BL("patch")    // must run the new code
	p.Hlt(0)
	p.Label("patch")
	p.Movz(4, 1, 0)
	p.Ret()
	img, err := p.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(img[p.Addr("patch")-Org:]); got != oldWord {
		t.Fatalf("patch slot assembled as %#x, want %#x", got, oldWord)
	}
	golden := checkDirected(t, SMCLane, &Program{Seed: -1, Image: img})[0]
	x := func(n int) uint64 { return leUint64(golden.Regs[regLayout().x+8*n:]) }
	if x(3) != uint64(oldWord) || x(6) != 1 || x(4) != 2 {
		t.Fatalf("golden: x3=%#x x6=%d x4=%d, want x3=%#x x6=1 x4=2", x(3), x(6), x(4), oldWord)
	}
}

func TestSMCLoadThenStoreRV64(t *testing.T) {
	p := asm.New(RVOrg)
	p.La(rvAddr, "patch")
	p.Jal(asm.RA, "patch") // translate the page and run the old code
	p.Addi(11, 10, 0)
	p.Lw(12, rvAddr, 0) // read-only host mapping of the protected code page
	p.Li(13, uint64(rvAddiWord(10, asm.X0, 2)))
	p.Sw(13, rvAddr, 0)    // SMC store through that mapping
	p.Jal(asm.RA, "patch") // must run the new code
	p.Ecall()
	p.Label("patch")
	p.Addi(10, asm.X0, 1)
	p.Ret()
	img, err := p.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	oldWord := binary.LittleEndian.Uint32(img[p.Addr("patch")-RVOrg:])
	golden := checkDirected(t, RV64Lane, &Program{Seed: -1, Image: img})[0]
	if r := goldenRegs(golden); r[12] != uint64(int64(int32(oldWord))) || r[11] != 1 || r[10] != 2 {
		t.Fatalf("golden: x12=%#x x11=%d x10=%d, want x12=%#x x11=1 x10=2", r[12], r[11], r[10], oldWord)
	}
}
