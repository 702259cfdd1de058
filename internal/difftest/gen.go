// Package difftest is the cross-engine differential-testing subsystem.
// Seeded random program generators for both guests feed one harness that
// runs each program through the reference interpreter (the golden model),
// the Captive DBT engine and the QEMU-style baseline across offline
// optimization levels O1–O4, and asserts bit-identical architectural state.
// This is how related DBT work validates translation correctness (the
// learned-rules DBT of Jiang et al. verifies every rule against an
// interpreter oracle), and it is the safety net every optimization in this
// repository is verified against.
//
// Each lane is a Lane descriptor (lanes.go): its generator, guest port and
// hart count, the probed memory windows, an optional CSR snapshot, the
// minimizer's candidate filter, an optional post-check, and its corpus and
// sweep parameters. One runner (Lane.Run) builds every machine through
// internal/machine, one matrix checker (Lane.Check, Lane.CheckProgram)
// compares each configuration against the golden run, and one NOP-replacing
// minimizer (Lane.Minimize) shrinks a divergence into the reproducer a
// *Mismatch prints. The trace lane is any lane's Traced copy.
package difftest

import (
	"math"
	"math/rand"
	"strconv"

	"captive/internal/guest/ga64"
	"captive/internal/guest/ga64/asm"
)

// Guest memory map used by generated programs. All data addresses reachable
// from the base registers stay inside [ProbeStart, ProbeEnd), which the
// harness compares byte-for-byte across engines.
const (
	Org         = 0x1000   // program load/entry address
	HandlerBase = 0x8000   // VBAR; the sync-same vector holds an eret stub
	Buf0        = 0x200000 // X0 data buffer base
	Buf1        = 0x210000 // X1 data buffer base
	StackTop    = 0x300000 // SP
	RAMBytes    = 8 << 20

	ProbeStart = Buf0 - 0x4000     // covers Buf0/Buf1 ±8 KiB offsets
	ProbeEnd   = Buf1 + 0x4000     //
	StackProbe = StackTop - 0x4000 // covers SP ±8 KiB offsets
	StackEnd   = StackTop + 0x4000
)

// Register conventions inside generated programs. Destination registers are
// drawn from [2, 26]; the remaining registers have fixed roles so that every
// memory access stays inside the probed windows.
const (
	minDst = 2
	maxDst = 26 // inclusive
	idxReg = 27 // register-offset index, always < 512 (written only by movz)
	ctrReg = 29 // bounded-loop counter
)

// Program is one generated differential-test case.
type Program struct {
	Seed    int64
	Ops     int
	Image   []byte // loaded at Org, entry Org
	Handler []byte // loaded at HandlerBase (exception vectors)
}

// Generate builds a random GA64 program from a seed. ops is the number of
// random body constructs (each construct is one to ~eight instructions); the
// prologue seeds every architectural register with deterministic values and
// the program always terminates with hlt #0 (loops are bounded, branches are
// forward, calls return, SVCs are bounced back by the handler stub).
func Generate(seed int64, ops int) (*Program, error) {
	rng := rand.New(rand.NewSource(seed))
	p := asm.New(Org)
	g := &generator{rng: rng, p: p}

	g.prologue()
	for i := 0; i < ops; i++ {
		g.construct()
	}
	p.Hlt(0)
	g.epilogue()

	img, err := p.Assemble()
	if err != nil {
		return nil, err
	}
	himg, err := eretStub()
	if err != nil {
		return nil, err
	}
	return &Program{Seed: seed, Ops: ops, Image: img, Handler: himg}, nil
}

// eretStub assembles the exception vectors of the EL1 lanes: EL1-sync
// (VBAR+0) returns to the interrupted stream. Their code runs at EL1 only
// and raises only SVCs, so a bare eret suffices.
func eretStub() ([]byte, error) {
	h := asm.New(HandlerBase)
	h.Eret()
	return h.Assemble()
}

type generator struct {
	rng *rand.Rand
	p   *asm.Program

	labels int
	// pending call targets: label -> emitted?
	fns []string
	// el0 restricts system-register traffic to the EL0-accessible registers
	// (the MMU-on lane: an EL0 SCRATCH0 access would trap undefined and
	// return to itself forever through the eret stub).
	el0 bool
	// faultVAs, when non-empty, mixes directed accesses to these page VAs
	// into the construct stream (the EL0 paging-fault lane; the handler
	// skips the faulting instruction, so the stream always terminates).
	faultVAs []uint64
}

func (g *generator) label(prefix string) string {
	g.labels++
	return prefix + "_" + strconv.Itoa(g.labels)
}

func (g *generator) dst() asm.Reg { return asm.Reg(minDst + g.rng.Intn(maxDst-minDst+1)) }

// src draws a source register: usually a destination-range register, with
// occasional reads of the special-role registers (X0/X1 bases, index,
// counter, LR) which are always defined.
func (g *generator) src() asm.Reg {
	if g.rng.Intn(8) == 0 {
		return []asm.Reg{0, 1, idxReg, 28, ctrReg, asm.LR, asm.SP}[g.rng.Intn(7)]
	}
	return g.dst()
}

func (g *generator) vreg() asm.Reg { return asm.Reg(g.rng.Intn(10)) }

// bufAddr picks a base register and an aligned signed 14-bit offset that
// stays inside the probed data windows.
func (g *generator) bufAddr(align int32) (asm.Reg, int32) {
	base := []asm.Reg{0, 1, asm.SP}[g.rng.Intn(3)]
	off := int32(g.rng.Intn(1<<14)) - 1<<13 // [-8192, 8191]
	off &^= align - 1
	return base, off
}

func (g *generator) cond() uint32 { return uint32(g.rng.Intn(15)) }

// prologue seeds every architectural register deterministically.
func (g *generator) prologue() {
	p, rng := g.p, g.rng
	p.MovI(0, HandlerBase)
	p.Msr(ga64.SysVBAR, 0)
	// Vector registers first (uses X2 as the bit-pattern scratch).
	for v := asm.Reg(0); v < 10; v++ {
		if rng.Intn(2) == 0 {
			p.MovI(2, rng.Uint64()) // arbitrary bits: NaNs, denormals, ...
		} else {
			p.MovI(2, math.Float64bits(float64(rng.Intn(4096))/16.0-64))
		}
		p.FmovXG(v, 2)
	}
	// General-purpose registers.
	p.MovI(0, Buf0)
	p.MovI(1, Buf1)
	for r := asm.Reg(minDst); r <= maxDst; r++ {
		p.MovI(r, rng.Uint64()>>(uint(rng.Intn(5))*13))
	}
	p.Movz(idxReg, uint16(rng.Intn(512)), 0)
	p.Movz(28, uint16(rng.Uint32()), 0)
	p.Movz(ctrReg, 0, 0)
	p.MovI(asm.LR, Org) // defined value; overwritten by BL before any RET
	p.MovI(asm.SP, StackTop)
	// Defined initial flags.
	p.CmpI(2, 1)
}

// epilogue emits the bodies of any functions the stream called.
func (g *generator) epilogue() {
	for _, fn := range g.fns {
		g.p.Label(fn)
		for i, n := 0, 1+g.rng.Intn(3); i < n; i++ {
			g.simpleOp()
		}
		g.p.Ret()
	}
}

// construct emits one random construct: a simple instruction most of the
// time, occasionally a branch skip, a bounded loop, a call, or an SVC
// round-trip — plus, in the fault lane, directed accesses to the fault
// pages.
func (g *generator) construct() {
	if len(g.faultVAs) > 0 && g.rng.Intn(6) == 0 {
		g.faultAccess()
		return
	}
	switch g.rng.Intn(20) {
	case 0: // forward conditional-branch skip
		g.forwardBranch()
	case 1: // bounded loop
		g.boundedLoop()
	case 2: // call/return
		g.call()
	case 3: // SVC round-trip through the vector stub
		g.p.Svc(uint32(g.rng.Intn(1 << 14)))
	default:
		g.simpleOp()
	}
}

// faultAccess emits one load or store into a directed fault page. Whether
// it traps depends on the page's permissions and the access kind; faulting
// accesses are skipped by the handler, so destination registers keep their
// prior values on those paths — all asserted bit-identical across engines.
func (g *generator) faultAccess() {
	p, rng := g.p, g.rng
	va := g.faultVAs[rng.Intn(len(g.faultVAs))] + uint64(rng.Intn(64))*8
	p.MovI(minDst, va)
	if rng.Intn(2) == 0 {
		p.Ldr(g.dst(), minDst, 0)
	} else {
		p.Str(g.src(), minDst, 0)
	}
}

func (g *generator) forwardBranch() {
	p := g.p
	l := g.label("fwd")
	switch g.rng.Intn(4) {
	case 0:
		p.Cbz(g.src(), l)
	case 1:
		p.Cbnz(g.src(), l)
	default:
		p.BCond(g.cond(), l)
	}
	for i, n := 0, 1+g.rng.Intn(3); i < n; i++ {
		g.simpleOp()
	}
	p.Label(l)
}

func (g *generator) boundedLoop() {
	p := g.p
	l := g.label("loop")
	p.Movz(ctrReg, uint16(1+g.rng.Intn(8)), 0)
	p.Label(l)
	for i, n := 0, 1+g.rng.Intn(3); i < n; i++ {
		g.simpleOp()
	}
	p.SubsI(ctrReg, ctrReg, 1)
	p.BCond(ga64.CondNE, l)
}

func (g *generator) call() {
	// Reuse an existing function half of the time (exercises block reuse
	// and chaining); otherwise mint a new one.
	if len(g.fns) == 0 || g.rng.Intn(2) == 0 {
		g.fns = append(g.fns, g.label("fn"))
	}
	g.p.BL(g.fns[g.rng.Intn(len(g.fns))])
}

// simpleOp emits one straight-line instruction (no control flow).
func (g *generator) simpleOp() {
	p, rng := g.p, g.rng
	rd, rn, rm := g.dst(), g.src(), g.src()
	switch rng.Intn(34) {
	case 0:
		if rng.Intn(2) == 0 {
			p.Add(rd, rn, rm)
		} else {
			p.AddShift(rd, rn, rm, uint32(rng.Intn(8)))
		}
	case 1:
		p.Sub(rd, rn, rm)
	case 2:
		p.Adds(rd, rn, rm)
	case 3:
		p.Subs(rd, rn, rm)
	case 4:
		switch rng.Intn(5) {
		case 0:
			p.And(rd, rn, rm)
		case 1:
			p.Ands(rd, rn, rm)
		case 2:
			p.Orr(rd, rn, rm)
		case 3:
			p.Eor(rd, rn, rm)
		default:
			p.Bic(rd, rn, rm)
		}
	case 5:
		p.Mul(rd, rn, rm)
	case 6:
		if rng.Intn(2) == 0 {
			p.SDiv(rd, rn, rm) // zero divisors arise naturally
		} else {
			p.UDiv(rd, rn, rm)
		}
	case 7:
		switch rng.Intn(3) {
		case 0:
			p.Lslv(rd, rn, rm)
		case 1:
			p.Lsrv(rd, rn, rm)
		default:
			p.Asrv(rd, rn, rm)
		}
	case 8:
		if rng.Intn(2) == 0 {
			p.Madd(rd, rn, rm, g.src())
		} else {
			p.Msub(rd, rn, rm, g.src())
		}
	case 9:
		if rng.Intn(2) == 0 {
			p.Csel(rd, rn, rm, g.cond())
		} else {
			p.Csinc(rd, rn, rm, g.cond())
		}
	case 10:
		if rng.Intn(2) == 0 {
			p.Cmp(rn, rm)
		} else {
			p.Tst(rn, rm)
		}
	case 11:
		imm := uint32(rng.Intn(1 << 14))
		switch rng.Intn(6) {
		case 0:
			p.AddI(rd, rn, imm)
		case 1:
			p.SubI(rd, rn, imm)
		case 2:
			p.AddsI(rd, rn, imm)
		case 3:
			p.SubsI(rd, rn, imm)
		case 4:
			p.CmpI(rn, imm)
		default:
			p.AndI(rd, rn, imm)
		}
	case 12:
		switch rng.Intn(3) {
		case 0:
			p.OrrI(rd, rn, uint32(rng.Intn(1<<14)))
		case 1:
			p.EorI(rd, rn, uint32(rng.Intn(1<<14)))
		default:
			p.Lsl(rd, rn, uint32(rng.Intn(64)))
		}
	case 13:
		if rng.Intn(2) == 0 {
			p.Lsr(rd, rn, uint32(rng.Intn(64)))
		} else {
			p.Asr(rd, rn, uint32(rng.Intn(64)))
		}
	case 14:
		switch rng.Intn(3) {
		case 0:
			p.Movz(rd, uint16(rng.Uint32()), uint32(rng.Intn(4)))
		case 1:
			p.Movk(rd, uint16(rng.Uint32()), uint32(rng.Intn(4)))
		default:
			p.Movn(rd, uint16(rng.Uint32()), uint32(rng.Intn(4)))
		}
	case 15: // 64-bit load/store
		base, off := g.bufAddr(8)
		if rng.Intn(2) == 0 {
			p.Ldr(rd, base, off)
		} else {
			p.Str(rn, base, off)
		}
	case 16: // narrow loads (zero- and sign-extending)
		base, off := g.bufAddr(4)
		switch rng.Intn(4) {
		case 0:
			p.Ldr32(rd, base, off)
		case 1:
			p.Ldr16(rd, base, off&^1)
		case 2:
			p.Ldrsw(rd, base, off)
		default:
			p.Ldrb(rd, base, off)
		}
	case 17: // narrow stores and sign-extending byte load
		base, off := g.bufAddr(4)
		switch rng.Intn(4) {
		case 0:
			p.Str32(rn, base, off)
		case 1:
			p.Str16(rn, base, off&^1)
		case 2:
			p.Strb(rn, base, off)
		default:
			p.Ldrsb(rd, base, off)
		}
	case 18: // register-offset addressing via the bounded index register
		sh := uint32(rng.Intn(4))
		base := asm.Reg(rng.Intn(2))
		switch rng.Intn(6) {
		case 0:
			p.LdrR(rd, base, idxReg, sh)
		case 1:
			p.StrR(rn, base, idxReg, sh)
		case 2:
			p.LdrbR(rd, base, idxReg, sh)
		case 3:
			p.StrbR(rn, base, idxReg, sh)
		case 4:
			p.Ldr32R(rd, base, idxReg, sh)
		default:
			p.Str32R(rn, base, idxReg, sh)
		}
	case 19: // refresh the index register (keeps reg-offset accesses bounded)
		p.Movz(idxReg, uint16(rng.Intn(512)), 0)
	case 20: // load/store pair (9-bit offset scaled by 8)
		base := []asm.Reg{0, 1, asm.SP}[rng.Intn(3)]
		off8 := int32(rng.Intn(512)) - 256 // [-256, 255]
		if rng.Intn(2) == 0 {
			p.Ldp(rd, g.dst(), base, off8)
		} else {
			p.Stp(rn, rm, base, off8)
		}
	case 21: // scalar FP arithmetic
		vd, vn, vm := g.vreg(), g.vreg(), g.vreg()
		switch rng.Intn(6) {
		case 0:
			p.Fadd(vd, vn, vm)
		case 1:
			p.Fsub(vd, vn, vm)
		case 2:
			p.Fmul(vd, vn, vm)
		case 3:
			p.Fdiv(vd, vn, vm)
		case 4:
			p.Fmin(vd, vn, vm)
		default:
			p.Fmax(vd, vn, vm)
		}
	case 22:
		vd, vn := g.vreg(), g.vreg()
		switch rng.Intn(4) {
		case 0:
			p.Fsqrt(vd, vn) // negative inputs exercise the Table 2 fix-up
		case 1:
			p.Fneg(vd, vn)
		case 2:
			p.Fabs(vd, vn)
		default:
			p.Fmov(vd, vn)
		}
	case 23:
		p.Fcmp(g.vreg(), g.vreg())
	case 24:
		if rng.Intn(2) == 0 {
			p.FmovGX(rd, g.vreg())
		} else {
			p.FmovXG(g.vreg(), rn)
		}
	case 25:
		switch rng.Intn(4) {
		case 0:
			p.Scvtf(g.vreg(), rn)
		case 1:
			p.Ucvtf(g.vreg(), rn)
		case 2:
			p.Fcvtzs(rd, g.vreg())
		default:
			p.Fmadd(g.vreg(), g.vreg(), g.vreg(), g.vreg())
		}
	case 26: // FP load/store
		base, off := g.bufAddr(8)
		if rng.Intn(2) == 0 {
			p.Fldr(g.vreg(), base, off)
		} else {
			p.Fstr(g.vreg(), base, off)
		}
	case 27: // vector
		vd, vn, vm := g.vreg(), g.vreg(), g.vreg()
		switch rng.Intn(3) {
		case 0:
			p.VAdd2D(vd, vn, vm)
		case 1:
			p.VFAdd2D(vd, vn, vm)
		default:
			p.VFMul2D(vd, vn, vm)
		}
	case 28: // 128-bit vector load/store (16-byte window alignment)
		base, off := g.bufAddr(8)
		if off > 8176 {
			off = 8176
		}
		if rng.Intn(2) == 0 {
			p.Vld1(g.vreg(), base, off)
		} else {
			p.Vst1(g.vreg(), base, off)
		}
	case 29: // adr
		l := g.label("adr")
		p.Adr(rd, l)
		p.Label(l)
	case 30: // system-register traffic (non-translation registers)
		switch rng.Intn(4) {
		case 0:
			p.Msr(ga64.SysTPIDR, rn)
		case 1:
			p.Mrs(rd, ga64.SysTPIDR)
		case 2:
			if g.el0 {
				p.Msr(ga64.SysTPIDR, rn)
			} else {
				p.Msr(ga64.SysSCRATCH0, rn)
			}
		default:
			if g.el0 {
				p.Mrs(rd, ga64.SysTPIDR)
			} else {
				p.Mrs(rd, ga64.SysSCRATCH0)
			}
		}
	case 31:
		p.Nop()
	case 32: // block-splitting unconditional branch to the next instruction
		p.BNext()
	default:
		p.Mov(rd, rn)
	}
}
