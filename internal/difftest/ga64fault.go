package difftest

// The GA64 EL0 paging-*fault* lane — the ROADMAP item that was blocked on
// "fault-aware instruction accounting in internal/interp": generated EL0
// programs running under translation whose construct stream includes
// directed accesses to a read-only page, a kernel-only page and an unmapped
// page. Those accesses abort *mid-block*; the engines charged the whole
// translated block at entry, so only a golden model with the same
// block-granular scheme (the unified interp.Machine) retires bit-identical
// counts. The EL1 handler records each abort's syndrome (folding ESR and
// FAR into X25), skips the faulting instruction through ELR, and bounces
// SVCs back untouched — exercising the engines' guest-exception paths
// (Captive's host-fault reconstruction of §3.5, the baseline's softmmu slow
// path) on every seed.

import (
	"math/rand"

	"captive/internal/guest/ga64"
	"captive/internal/guest/ga64/asm"
)

// Fault-lane layout: the identity tables of the MMU lane, plus one level-0
// table mapping three directed 4 KiB pages above the identity-mapped 8 MiB
// (L1 index 4). Backing frames sit in RAM above the probed windows and
// below the page tables.
const (
	faultL0 = 0x703000 // level-0 table with the directed fault pages

	FaultROPage   = 0x800000 // read-only (user): stores abort, loads succeed
	FaultKernPage = 0x801000 // kernel-only: every EL0 access aborts
	FaultUnmapped = 0x802000 // no mapping: every access aborts

	faultROPA   = 0x7F0000 // backing frame of FaultROPage (stays zero)
	faultKernPA = 0x7F1000 // backing frame of FaultKernPage
)

// faultSigReg accumulates the abort signature in the handler (shifted fold
// of ESR and FAR). It lies in the destination range, so body constructs may
// overwrite it — deterministically, like every other register.
const faultSigReg = 25

// GenerateMMUFault builds a random EL0 paging-fault GA64 program: the MMU
// lane's EL1 prologue extended with the directed fault pages, a lower-EL
// vector that distinguishes SVCs from aborts (aborts are recorded and
// skipped; SVCs return to the next instruction as the architecture already
// arranged), and a body mixing the EL0 construct set with directed fault
// accesses.
func GenerateMMUFault(seed int64, ops int) (*Program, error) {
	g := &generator{rng: rand.New(rand.NewSource(seed)), p: asm.New(Org), el0: true,
		faultVAs: []uint64{FaultROPage, FaultKernPage, FaultUnmapped}}

	// The MMU lane's identity mapping plus the directed-fault level-0 table
	// (faultL0[2], FaultUnmapped, stays zero: no valid bit). The signature
	// accumulator is cleared after the prologue so its folds are
	// seed-deterministic.
	img, err := g.el0Image(ops, [][2]uint64{
		{mmuL1 + 4*8, faultL0 | el0PTE}, // VA [8 MiB, 10 MiB) -> directed pages
		{faultL0 + 0*8, faultROPA | ga64.PTEValid | ga64.PTEUser},
		{faultL0 + 1*8, faultKernPA | ga64.PTEValid | ga64.PTEWrite},
	}, faultSigReg)
	if err != nil {
		return nil, err
	}

	// Exception vectors. Sync-same (VBAR+0): the EL1 prologue never traps —
	// a bare eret. Sync-lower (VBAR+0x100): SVCs eret as-is (ELR already
	// points past the svc); aborts fold ESR and FAR into the signature
	// register and advance ELR past the faulting instruction. NZCV is
	// restored from SPSR by eret, so the handler's compare is invisible to
	// EL0 state.
	h := asm.New(HandlerBase)
	h.Eret()
	for h.PC() < HandlerBase+ga64.VecSyncLower {
		h.Nop()
	}
	h.Mrs(2, ga64.SysESR)
	h.Lsr(3, 2, 26) // exception class
	h.CmpI(3, ga64.ECSVC)
	h.BCond(ga64.CondEQ, "out")
	h.Mrs(4, ga64.SysFAR)
	h.Lsl(faultSigReg, faultSigReg, 1)
	h.Add(faultSigReg, faultSigReg, 2)
	h.Add(faultSigReg, faultSigReg, 4)
	h.Mrs(3, ga64.SysELR)
	h.AddI(3, 3, 4) // skip the faulting instruction
	h.Msr(ga64.SysELR, 3)
	h.Label("out")
	h.Eret()
	himg, err := h.Assemble()
	if err != nil {
		return nil, err
	}
	return &Program{Seed: seed, Ops: ops, Image: img, Handler: himg}, nil
}
