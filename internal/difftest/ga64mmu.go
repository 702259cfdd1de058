package difftest

// The GA64 MMU-on/EL0 lane (the ROADMAP "widen the generators" item):
// generated programs that build guest page tables with ordinary stores,
// enable the MMU, drop to EL0 through eret and run the user-lane construct
// set under translation, bouncing SVCs through the lower-EL vector — so the
// GA64 engines' host-MMU/softmmu paged paths are differentially tested just
// like RV64's sv39 lane.

import (
	"fmt"
	"math/rand"

	"captive/internal/guest/ga64"
	"captive/internal/guest/ga64/asm"
)

// Guest-physical placement of the MMU lane's page tables (above every
// probed window) and the fixed EL0 entry point the prologue pads to (so the
// eret target is a constant regardless of prologue length).
const (
	mmuL3    = 0x700000 // TTBR0 root
	mmuL2    = 0x701000
	mmuL1    = 0x702000 // four 2 MiB large leaves: identity 0..8 MiB
	MMUEntry = Org + 0x1000
)

// el0PTE marks a page-table entry valid, writable and user-accessible.
const el0PTE = ga64.PTEValid | ga64.PTEWrite | ga64.PTEUser

// GenerateMMU builds a random MMU-on/EL0 GA64 program: the EL1 prologue
// stores a 2 MiB-granule identity mapping of all guest RAM, points TTBR0 at
// it, enables the MMU, then erets to EL0 where the standard construct set
// runs under translation until hlt #0.
func GenerateMMU(seed int64, ops int) (*Program, error) {
	g := &generator{rng: rand.New(rand.NewSource(seed)), p: asm.New(Org), el0: true}
	img, err := g.el0Image(ops, nil)
	if err != nil {
		return nil, err
	}

	// Exception vectors: sync-same (VBAR+0) and sync-lower (VBAR+0x100)
	// both return to the interrupted stream — EL0 code raises only SVCs.
	h := asm.New(HandlerBase)
	h.Eret()
	for h.PC() < HandlerBase+ga64.VecSyncLower {
		h.Nop()
	}
	h.Eret()
	himg, err := h.Assemble()
	if err != nil {
		return nil, err
	}
	return &Program{Seed: seed, Ops: ops, Image: img, Handler: himg}, nil
}

// el0Image assembles the program of a paged EL0 lane. The EL1 prologue
// stores the identity mapping (valid, writable, user at every level) and
// then the extra (address, entry) pairs, runs the user lane's prologue,
// sets each register in zero to 0, enables translation and erets to EL0 at
// MMUEntry, where ops constructs run until hlt #0.
func (g *generator) el0Image(ops int, extra [][2]uint64, zero ...asm.Reg) ([]byte, error) {
	p, rng := g.p, g.rng

	// Page tables first (X2/X3 scratch; reseeded by the prologue below).
	stores := [][2]uint64{{mmuL3, mmuL2 | el0PTE}, {mmuL2, mmuL1 | el0PTE}}
	for i := uint64(0); i < 4; i++ {
		stores = append(stores, [2]uint64{mmuL1 + i*8, i*0x200000 | el0PTE | ga64.PTELarge})
	}
	for _, st := range append(stores, extra...) {
		p.MovI(2, st[1])
		p.MovI(3, st[0])
		p.Str(2, 3, 0)
	}

	// Registers, VBAR and flags (the user lane's prologue).
	g.prologue()
	for _, r := range zero {
		p.MovI(r, 0)
	}

	// Enable translation and drop to EL0 at the fixed entry point.
	p.MovI(2, mmuL3)
	p.Msr(ga64.SysTTBR0, 2)
	p.MovI(2, ga64.SCTLRMmuEnable)
	p.Msr(ga64.SysSCTLR, 2)
	p.MovI(2, 0) // SPSR: EL0, clear flags
	p.Msr(ga64.SysSPSR, 2)
	p.MovI(2, MMUEntry)
	p.Msr(ga64.SysELR, 2)
	p.MovI(2, rng.Uint64()>>(uint(rng.Intn(5))*13)) // reseed the scratch
	p.Eret()
	if p.PC() > MMUEntry {
		// A silent overrun would make the eret land backward inside the
		// prologue and loop forever on every engine.
		return nil, fmt.Errorf("difftest: EL1 prologue (%#x) overran the fixed EL0 entry %#x", p.PC(), uint64(MMUEntry))
	}
	for p.PC() < MMUEntry {
		p.Nop() // never executed: padding up to the eret target
	}

	for i := 0; i < ops; i++ {
		g.construct()
	}
	p.Hlt(0)
	g.epilogue()
	return p.Assemble()
}
