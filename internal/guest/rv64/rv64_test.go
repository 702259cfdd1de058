package rv64

import (
	"encoding/binary"
	"testing"

	"captive/internal/guest/port"
	"captive/internal/interp"
)

// RISC-V instruction encoders for tests (real RV64I encodings).
func encR(f7, rs2, rs1, f3, rd, op uint32) uint32 {
	return f7<<25 | rs2<<20 | rs1<<15 | f3<<12 | rd<<7 | op
}
func encI(imm, rs1, f3, rd, op uint32) uint32 {
	return imm<<20 | rs1<<15 | f3<<12 | rd<<7 | op
}
func encS(imm, rs2, rs1, f3, op uint32) uint32 {
	return (imm>>5)<<25 | rs2<<20 | rs1<<15 | f3<<12 | (imm&0x1F)<<7 | op
}
func encB(imm int32, rs2, rs1, f3, op uint32) uint32 {
	u := uint32(imm)
	return (u>>12&1)<<31 | (u>>5&0x3F)<<25 | rs2<<20 | rs1<<15 | f3<<12 |
		(u>>1&0xF)<<8 | (u>>11&1)<<7 | op
}
func encU(imm, rd, op uint32) uint32 { return imm<<12 | rd<<7 | op }
func encJ(imm int32, rd, op uint32) uint32 {
	u := uint32(imm)
	return (u>>20&1)<<31 | (u>>1&0x3FF)<<21 | (u>>11&1)<<20 | (u>>12&0xFF)<<12 | rd<<7 | op
}

func prog(words ...uint32) []byte {
	out := make([]byte, len(words)*4)
	for i, w := range words {
		binary.LittleEndian.PutUint32(out[i*4:], w)
	}
	return out
}

// run executes hand-encoded words on the unified reference interpreter via
// rv64.Port — the same golden configuration the difftest lanes use.
func run(t *testing.T, words ...uint32) *interp.Machine {
	t.Helper()
	m := interp.New(Port{}, MustModule(), 1<<20)
	if err := m.LoadImage(prog(words...), 0x1000, 0x1000); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	return m
}

const ecall = 0x00000073

func TestArithmetic(t *testing.T) {
	m := run(t,
		encI(100, 0, 0, 1, 0b0010011),          // addi x1, x0, 100
		encI(42, 0, 0, 2, 0b0010011),           // addi x2, x0, 42
		encR(0, 2, 1, 0, 3, 0b0110011),         // add x3, x1, x2
		encR(0b0100000, 2, 1, 0, 4, 0b0110011), // sub x4, x1, x2
		encR(1, 2, 1, 0, 5, 0b0110011),         // mul x5, x1, x2
		encI(0xFFF, 0, 0, 6, 0b0010011),        // addi x6, x0, -1
		encR(0, 1, 6, 5, 7, 0b0110011),         // srl x7 = -1 >> 100&63
		ecall,
	)
	if m.Reg(3) != 142 || m.Reg(4) != 58 || m.Reg(5) != 4200 {
		t.Errorf("x3=%d x4=%d x5=%d", m.Reg(3), m.Reg(4), m.Reg(5))
	}
	if int64(m.Reg(6)) != -1 {
		t.Errorf("sign-extended addi: %d", int64(m.Reg(6)))
	}
	if m.Reg(7) != ^uint64(0)>>(100&63) {
		t.Errorf("srl: %#x", m.Reg(7))
	}
}

func TestX0Hardwired(t *testing.T) {
	m := run(t,
		encI(99, 0, 0, 0, 0b0010011),   // addi x0, x0, 99 (dropped)
		encR(0, 0, 0, 0, 1, 0b0110011), // add x1, x0, x0
		ecall,
	)
	if m.Reg(0) != 0 || m.Reg(1) != 0 {
		t.Errorf("x0=%d x1=%d", m.Reg(0), m.Reg(1))
	}
}

func TestLoadsStores(t *testing.T) {
	m := run(t,
		encU(0x10, 1, 0b0110111),        // lui x1, 0x10 -> 0x10000
		encI(0x7FF, 0, 0, 2, 0b0010011), // x2 = 2047
		encS(16, 2, 1, 3, 0b0100011),    // sd x2, 16(x1)
		encI(16, 1, 3, 3, 0b0000011),    // ld x3, 16(x1)
		encI(16, 1, 4, 4, 0b0000011),    // lbu x4, 16(x1)
		encI(0x880, 0, 0, 5, 0b0010011), // x5 = -1920 (sext)
		encS(24, 5, 1, 0, 0b0100011),    // sb x5, 24(x1)
		encI(24, 1, 0, 6, 0b0000011),    // lb x6 (sign-extends 0x80)
		ecall,
	)
	if m.Reg(3) != 2047 || m.Reg(4) != 0xFF {
		t.Errorf("x3=%d x4=%d", m.Reg(3), m.Reg(4))
	}
	if int64(m.Reg(6)) != -128 { // 0x80 sign-extended
		t.Errorf("lb sign extension: %d", int64(m.Reg(6)))
	}
}

func TestBranchLoopFibonacci(t *testing.T) {
	// fib(20) iteratively.
	m := run(t,
		encI(0, 0, 0, 1, 0b0010011),  // x1 = 0
		encI(1, 0, 0, 2, 0b0010011),  // x2 = 1
		encI(20, 0, 0, 3, 0b0010011), // x3 = 20
		// loop:
		encR(0, 2, 1, 0, 4, 0b0110011),  // x4 = x1 + x2
		encR(0, 0, 2, 0, 1, 0b0110011),  // x1 = x2
		encR(0, 0, 4, 0, 2, 0b0110011),  // x2 = x4
		encI(0xFFF, 3, 0, 3, 0b0010011), // x3 -= 1
		encB(-16, 0, 3, 1, 0b1100011),   // bne x3, x0, loop
		ecall,
	)
	if m.Reg(2) != 10946 {
		t.Errorf("fib(20) = %d, want 10946", m.Reg(2))
	}
}

func TestJalFunctionCall(t *testing.T) {
	m := run(t,
		encJ(12, 1, 0b1101111),       // jal x1, +12 (skip 2 instrs)
		encI(7, 0, 0, 5, 0b0010011),  // x5 = 7 (return lands here)
		ecall,                        //
		encI(99, 0, 0, 6, 0b0010011), // target: x6 = 99
		encI(0, 1, 0, 0, 0b1100111),  // jalr x0, 0(x1): return
	)
	if m.Reg(6) != 99 || m.Reg(5) != 7 {
		t.Errorf("x6=%d x5=%d", m.Reg(6), m.Reg(5))
	}
}

func TestShiftsAndSlt(t *testing.T) {
	m := run(t,
		encI(1, 0, 0, 1, 0b0010011),        // x1 = 1
		encI(63, 1, 1, 2, 0b0010011),       // slli x2, x1, 63
		encI(0x400|63, 2, 5, 3, 0b0010011), // srai x3, x2, 63 -> -1
		encI(63, 2, 5, 4, 0b0010011),       // srli x4, x2, 63 -> 1
		encR(0, 1, 3, 2, 5, 0b0110011),     // slt x5, x3(-1), x1(1) -> 1
		encR(0, 1, 3, 3, 6, 0b0110011),     // sltu x6, x3(max), x1 -> 0
		ecall,
	)
	if m.Reg(2) != 1<<63 || int64(m.Reg(3)) != -1 || m.Reg(4) != 1 {
		t.Errorf("shifts: %#x %d %d", m.Reg(2), int64(m.Reg(3)), m.Reg(4))
	}
	if m.Reg(5) != 1 || m.Reg(6) != 0 {
		t.Errorf("slt/sltu: %d %d", m.Reg(5), m.Reg(6))
	}
}

func TestModuleStats(t *testing.T) {
	module := MustModule()
	if len(module.Instrs) < 35 {
		t.Errorf("expected >= 35 instructions, got %d", len(module.Instrs))
	}
	if module.InstBits != 32 {
		t.Errorf("InstBits = %d", module.InstBits)
	}
}

// --- full-system unit tests ---------------------------------------------------

// walkSys builds a Sys + physical memory with a one-gigapage identity
// mapping plus one directed 4 KiB PTE, for walker unit tests.
func walkSys(l0pte uint64) (*Sys, port.PhysRead64) {
	mem := make([]byte, 1<<20)
	w64 := func(pa, v uint64) { binary.LittleEndian.PutUint64(mem[pa:], v) }
	const root, l1, l0 = 0x1000, 0x2000, 0x3000
	w64(root, l1>>12<<10|PTEV)
	w64(l1, 0|PTEV|PTER|PTEW|PTEX|PTEA|PTED) // megapage 0..2MiB
	w64(l1+2*8, l0>>12<<10|PTEV)             // 4..6 MiB -> l0
	w64(l0, l0pte)                           // VA 0x400000
	s := &Sys{Mode: PrivS, Satp: SatpModeSv39<<60 | root>>12}
	read := func(pa uint64) (uint64, bool) {
		if pa+8 > uint64(len(mem)) {
			return 0, false
		}
		return binary.LittleEndian.Uint64(mem[pa:]), true
	}
	return s, read
}

func TestSv39WalkUnit(t *testing.T) {
	// Megapage leaf translates with block=true and folds A/D into perms.
	s, read := walkSys(0x500000>>12<<10 | PTEV | PTER | PTEW | PTEA | PTED)
	w := s.Walk(read, 0x1234)
	if !w.OK || w.PA != 0x1234 || !w.Read || !w.Write || !w.Exec || !w.Block {
		t.Fatalf("megapage walk: %+v", w)
	}
	// Directed 4 KiB leaf.
	w = s.Walk(read, 0x400ABC)
	if !w.OK || w.PA != 0x500ABC || w.Block {
		t.Fatalf("4K walk: %+v", w)
	}
	// D=0 clears the write permission, A=0 fails the walk.
	s, read = walkSys(0x500000>>12<<10 | PTEV | PTER | PTEW | PTEA)
	if w = s.Walk(read, 0x400000); !w.OK || w.Write {
		t.Fatalf("D=0 should fold to read-only: %+v", w)
	}
	s, read = walkSys(0x500000>>12<<10 | PTEV | PTER | PTEW | PTED)
	if w = s.Walk(read, 0x400000); w.OK {
		t.Fatalf("A=0 should fault: %+v", w)
	}
	// U page from S: fails without SUM, loses Exec with it.
	s, read = walkSys(0x500000>>12<<10 | PTEV | PTER | PTEX | PTEU | PTEA)
	if w = s.Walk(read, 0x400000); w.OK {
		t.Fatalf("U page from S without SUM should fault: %+v", w)
	}
	s.Mstatus |= MstatusSUM
	if w = s.Walk(read, 0x400000); !w.OK || w.Exec || !w.Read {
		t.Fatalf("U page from S with SUM: %+v", w)
	}
	// M-mode is always bare.
	s.Mode = PrivM
	if w = s.Walk(read, 0x987654); !w.OK || w.PA != 0x987654 {
		t.Fatalf("M-mode bare walk: %+v", w)
	}
	// Out-of-range VA (bits 63:39 not a sign extension of bit 38).
	s.Mode = PrivS
	if w = s.Walk(read, 1<<40); w.OK {
		t.Fatalf("non-canonical sv39 VA should fault: %+v", w)
	}
}

func TestCSRFilePrivilegeAndWARL(t *testing.T) {
	var s Sys
	s.Reset()
	h := &port.Hooks{}
	if s.Mode != PrivM || s.Translating() {
		t.Fatalf("reset: mode=%d translating=%v", s.Mode, s.Translating())
	}
	// WARL: vector low bits, epc alignment, satp mode/ASID, medeleg mask.
	s.WriteReg(CSRMtvec, 0x1237, h)
	if s.Mtvec != 0x1234 {
		t.Errorf("mtvec=%#x", s.Mtvec)
	}
	s.WriteReg(CSRMepc, 0x1002, h)
	if s.Mepc != 0x1000 {
		t.Errorf("mepc=%#x", s.Mepc)
	}
	s.WriteReg(CSRSatp, 3<<60|0x99, h)
	if s.Satp != 0 {
		t.Errorf("unsupported satp MODE should be ignored: %#x", s.Satp)
	}
	s.WriteReg(CSRSatp, SatpModeSv39<<60|uint64(0xBEEF)<<44|0x99, h)
	if s.Satp != SatpModeSv39<<60|0x99 {
		t.Errorf("satp ASID should be hardwired 0: %#x", s.Satp)
	}
	s.WriteReg(CSRMedeleg, ^uint64(0), h)
	if s.Medeleg != MedelegMask || s.Medeleg>>CauseEcallM&1 != 0 {
		t.Errorf("medeleg=%#x", s.Medeleg)
	}
	if ok := s.WriteReg(CSRMhartid, 1, h); ok {
		t.Error("mhartid is read-only")
	}
	if v, ok := s.ReadReg(CSRMisa, h); !ok || v != MisaValue {
		t.Errorf("misa=%#x ok=%v", v, ok)
	}
	// Privilege: S-mode cannot touch M CSRs; U-mode cannot touch S CSRs.
	s.Mode = PrivS
	if _, ok := s.ReadReg(CSRMstatus, h); ok {
		t.Error("mstatus readable from S")
	}
	if v, ok := s.ReadReg(CSRSstatus, h); !ok || v&^uint64(sstatusMask) != 0 {
		t.Errorf("sstatus=%#x ok=%v", v, ok)
	}
	s.Mode = PrivU
	if _, ok := s.ReadReg(CSRSscratch, h); ok {
		t.Error("sscratch readable from U")
	}
}

func TestTakeDelegationAndERet(t *testing.T) {
	var s Sys
	s.Reset()
	h := &port.Hooks{}
	s.Mtvec, s.Stvec = 0x3000, 0x4000
	s.Medeleg = 1 << CauseBreakpoint
	s.Mode = PrivU

	// Delegated breakpoint from U lands in S with SPP=U.
	e := s.Take(port.Exception{Kind: port.ExcBreakpoint, PC: 0x1008}, h)
	if e.Halt || e.PC != 0x4000 || s.Mode != PrivS {
		t.Fatalf("delegated entry: %+v mode=%d", e, s.Mode)
	}
	if s.Scause != CauseBreakpoint || s.Sepc != 0x1008 || s.Stval != 0x1008 {
		t.Fatalf("scause=%d sepc=%#x stval=%#x", s.Scause, s.Sepc, s.Stval)
	}
	if s.Mstatus&MstatusSPP != 0 {
		t.Fatal("SPP should record U")
	}
	// sret returns to U.
	if pc := s.ERet(h); pc != s.Sepc || s.Mode != PrivU {
		t.Fatalf("sret: pc=%#x mode=%d", pc, s.Mode)
	}

	// Non-delegated syscall from U goes to M with the ecall-U cause and
	// the epc pointing at the ecall itself (engines pass next-PC).
	e = s.Take(port.Exception{Kind: port.ExcSyscall, PC: 0x2004}, h)
	if e.PC != 0x3000 || s.Mode != PrivM || s.Mcause != CauseEcallU || s.Mepc != 0x2000 {
		t.Fatalf("M entry: %+v mcause=%d mepc=%#x", e, s.Mcause, s.Mepc)
	}
	if s.Mstatus>>MstatusMPPShift&3 != PrivU {
		t.Fatal("MPP should record U")
	}
	// mret restores U and clears MPP.
	if pc := s.ERet(h); pc != 0x2000 || s.Mode != PrivU || s.Mstatus&MstatusMPP != 0 {
		t.Fatalf("mret: pc=%#x mode=%d mstatus=%#x", pc, s.Mode, s.Mstatus)
	}

	// With no vector installed the trap halts with the legacy exit codes.
	s.Reset()
	if e := s.Take(port.Exception{Kind: port.ExcSyscall, PC: 4}, nil); !e.Halt || e.Code != 0 {
		t.Fatalf("vectorless ecall: %+v", e)
	}
	if e := s.Take(port.Exception{Kind: port.ExcDataAbort, Write: true, Addr: 9}, nil); !e.Halt || e.Code != ExitDataAbort {
		t.Fatalf("vectorless abort: %+v", e)
	}
}

// TestRegimeShiftFiresHooks pins the port contract the engines rely on:
// privilege transitions with sv39 active fire TranslationChanged.
func TestRegimeShiftFiresHooks(t *testing.T) {
	var s Sys
	s.Reset()
	fired := 0
	h := &port.Hooks{TranslationChanged: func() { fired++ }}
	s.WriteReg(CSRSatp, SatpModeSv39<<60|1, h)
	if fired != 1 {
		t.Fatalf("satp write should flush: %d", fired)
	}
	s.Mtvec = 0x3000
	s.Mstatus |= PrivS << MstatusMPPShift
	s.ERet(h) // M -> S with sv39 active
	if s.Mode != PrivS || fired != 2 {
		t.Fatalf("mret regime shift: mode=%d fired=%d", s.Mode, fired)
	}
	s.Take(port.Exception{Kind: port.ExcSyscall, PC: 8}, h) // S -> M
	if s.Mode != PrivM || fired != 3 {
		t.Fatalf("trap regime shift: mode=%d fired=%d", s.Mode, fired)
	}
	// SUM changes flush too (the permission fold depends on it)...
	s.WriteReg(CSRMstatus, MstatusSUM, h)
	if fired != 4 {
		t.Fatalf("SUM change should flush: %d", fired)
	}
	// ...but not when translation is off.
	s.Satp = 0
	s.WriteReg(CSRMstatus, 0, h)
	s.Mstatus |= PrivS << MstatusMPPShift
	s.ERet(h)
	if fired != 4 {
		t.Fatalf("bare-mode transitions should not flush: %d", fired)
	}
}

// TestMachinePagedTrapRoundTrip drives the unified golden machine end to
// end through rv64.Port: sv39 tables in memory, an S-mode store into a
// read-only megapage, the fault vectoring to the M handler (which clears
// mtvec and exits through the vectorless ecall path).
func TestMachinePagedTrapRoundTrip(t *testing.T) {
	m := interp.New(Port{}, MustModule(), 8<<20)
	sys := RawSys(m.Sys())
	const root = 0x700000
	w64 := func(pa, v uint64) { binary.LittleEndian.PutUint64(m.Mem[pa:], v) }
	w64(root, (root+0x1000)>>12<<10|PTEV)
	w64(root+0x1000, 0|PTEV|PTER|PTEW|PTEX|PTEA|PTED)        // 0..2MiB RWX
	w64(root+0x1000+8, 0x200000>>12<<10|PTEV|PTER|PTEA|PTED) // 2..4MiB RO
	sys.Mtvec = 0x2000
	sys.Satp = SatpModeSv39<<60 | root>>12
	sys.Mode = PrivS
	if err := m.LoadImage(prog(
		encU(0x200, 5, 0b0110111),   // lui x5, 0x200 -> 0x200000
		encS(0, 6, 5, 3, 0b0100011), // sd x6, 0(x5) -> store page fault
	), 0x1000, 0x1000); err != nil {
		t.Fatal(err)
	}
	copy(m.Mem[0x2000:], prog(
		encI(0x305, 0, 1, 0, 0b1110011), // csrw mtvec, x0
		ecall,                           // vectorless: clean halt
	))
	if _, err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	if !m.Halted || m.ExitCode != 0 {
		t.Fatalf("halted=%v code=%#x", m.Halted, m.ExitCode)
	}
	if sys.Mcause != CauseStorePage || sys.Mtval != 0x200000 || sys.Mepc != 0x1004 {
		t.Fatalf("mcause=%d mtval=%#x mepc=%#x", sys.Mcause, sys.Mtval, sys.Mepc)
	}
	if sys.Mode != PrivM {
		t.Fatalf("mode=%d", sys.Mode)
	}
}
