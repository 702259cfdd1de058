package main

// The benchmark's own RV64 kernels, sized for it rather than for the
// single-shot figures in internal/bench.

import (
	"encoding/binary"

	"captive/internal/guest/rv64"
	rvasm "captive/internal/guest/rv64/asm"
)

// vmsumPasses sizes the sys-flush supervisor kernel. Every pass ends in one
// trap round-trip to M and back, so the work shrinks with the pass count
// but each pass keeps its translation flushes. The QEMU baseline runs a
// tenth of the passes: its whole-region flush makes it some 60 times
// slower, and the interpreter and Captive need the longer run to be timed
// steadily.
const (
	vmsumPasses     = 480
	vmsumPassesQEMU = 48
)

// vmsumKernel has the shape of internal/bench's rv64.vmsum: an M-mode boot
// builds sv39 tables (identity RWX code megapage, RW data megapage), enables
// paging and drops to S-mode, where a read-modify-write walk over 4 KiB runs
// under guest translation, with an ecall round-trip to M after every pass.
// x11 carries the checksum.
func vmsumKernel(passes uint64) *rvasm.Program {
	const root, l1 = 0x700000, 0x701000
	pte := func(pa, bits uint64) uint64 { return pa>>12<<10 | bits }
	leaf := uint64(rv64.PTEV | rv64.PTEA | rv64.PTED)
	p := rvasm.New(0x1000)
	st := func(addr, v uint64) {
		p.Li(6, v)
		p.Li(7, addr)
		p.Sd(6, 7, 0)
	}
	st(root, pte(l1, rv64.PTEV))
	st(l1, pte(0, leaf|rv64.PTER|rv64.PTEW|rv64.PTEX))
	st(l1+8, pte(0x200000, leaf|rv64.PTER|rv64.PTEW))
	p.La(6, "mtrap")
	p.Csrw(rv64.CSRMtvec, 6)
	p.Li(6, rv64.SatpModeSv39<<60|root>>12)
	p.Csrw(rv64.CSRSatp, 6)
	p.SfenceVma()
	p.Li(6, rv64.PrivS<<rv64.MstatusMPPShift)
	p.Csrw(rv64.CSRMstatus, 6)
	p.La(6, "super")
	p.Csrw(rv64.CSRMepc, 6)
	p.Mret()

	p.Label("super") // S-mode, translation on
	p.Li(5, 0x200000)
	p.Li(20, passes)
	p.Li(11, 0)
	p.Label("pass")
	p.Li(6, 512)
	p.Mv(7, 5)
	p.Label("elem")
	p.Ld(8, 7, 0)
	p.Add(8, 8, 6)
	p.Sd(8, 7, 0)
	p.Add(11, 11, 8)
	p.Addi(7, 7, 8)
	p.Addi(6, 6, -1)
	p.Bne(6, rvasm.X0, "elem")
	p.Ecall() // supervisor yield: trap to M, skip, mret back
	p.Addi(20, 20, -1)
	p.Bne(20, rvasm.X0, "pass")
	p.Li(21, 1)
	p.Ecall() // x21 != 0: the M handler clears mtvec and exits

	p.Label("mtrap")
	p.Bne(21, rvasm.X0, "mexit")
	p.Csrr(23, rv64.CSRMepc)
	p.Addi(23, 23, 4)
	p.Csrw(rv64.CSRMepc, 23)
	p.Mret()
	p.Label("mexit")
	p.Csrw(rv64.CSRMtvec, rvasm.X0)
	p.Ecall()
	return p
}

// SMP kernel geometry. The seed and the round count are data, not code, so
// every seed runs the same instructions.
const (
	smpScratch = 0x200000 // store target of every hart but 0
	smpParams  = 0x201000 // [seed, rounds, word] as little-endian doublewords
	smpStep    = 2000     // LCG steps between two stores
	smpRounds  = 100      // rounds per hart
	lcgMul     = 6364136223846793005
	lcgAdd     = 1442695040888963407
)

// smpKernel is the per-hart SMP compute kernel of spec-steady: an LCG over
// x11, seeded with seed+mhartid. The LCG loop sits alone on the second code
// page; the round loop on the first page calls it for smpStep steps and then
// stores the LCG loop's first instruction word (a parameter) back over it.
// On hart 0 the store hits a write-protected code page that every hart
// executes and forces a code invalidation under stop-the-world; other harts
// store to a private data word. Every hart runs the same instruction count,
// and the final state does not depend on how the harts interleave.
func smpKernel() *rvasm.Program {
	p := rvasm.New(0x1000)
	p.Csrr(5, rv64.CSRMhartid)
	p.Li(6, smpParams)
	p.Ld(11, 6, 0)
	p.Add(11, 11, 5)
	p.Ld(10, 6, 8)
	p.Ld(17, 6, 16)
	p.Li(13, lcgMul)
	p.Li(14, lcgAdd)
	// Store target: "step" on hart 0, smpScratch elsewhere (branch-free, so
	// every hart retires the same instructions).
	p.La(15, "step")
	p.Li(16, smpScratch)
	p.Sub(16, 16, 15)
	p.Mul(16, 16, 5)
	p.Add(15, 15, 16)
	p.Label("round")
	p.Li(12, smpStep)
	p.Jal(rvasm.RA, "step")
	p.Sw(17, 15, 0)
	p.Addi(10, 10, -1)
	p.Bne(10, rvasm.X0, "round")
	p.Ecall()
	for p.PC()&0xFFF != 0 {
		p.Nop()
	}
	p.Label("step")
	p.Mul(11, 11, 13)
	p.Add(11, 11, 14)
	p.Addi(12, 12, -1)
	p.Bne(12, rvasm.X0, "step")
	p.Ret()
	return p
}

// smpParamsPart encodes the kernel's parameters; word is the instruction
// word at smpKernel's "step" label.
func smpParamsPart(seed, rounds uint64, word uint32) part {
	b := make([]byte, 24)
	binary.LittleEndian.PutUint64(b, seed)
	binary.LittleEndian.PutUint64(b[8:], rounds)
	binary.LittleEndian.PutUint64(b[16:], uint64(word))
	return part{pa: smpParams, data: b}
}

// lcgSum is the host model of smpKernel's checksum on one hart.
func lcgSum(seed, hart, rounds uint64) uint64 {
	x := seed + hart
	for i := uint64(0); i < rounds*smpStep; i++ {
		x = x*lcgMul + lcgAdd
	}
	return x
}
