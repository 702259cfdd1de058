package bench

// The SMP rows of the model report: the same per-hart kernel on 1, 2 and 4
// truly-parallel vCPUs (core.SMP.RunParallel). Each hart runs an identical
// LCG mix loop seeded by mhartid, so the work is embarrassingly parallel and
// exercises the shared code cache, the stop-the-world checkpoints and the
// per-hart dispatcher. The x1 row runs the very same kernel through the same
// parallel path. The rows carry workload names of their own
// ("smp-lcg-x<n>"), so they never collide with single-vCPU rows.

import (
	"captive/internal/guest/rv64"
	rvasm "captive/internal/guest/rv64/asm"
)

// rvSMPKernel is the per-hart workload: an LCG register mix seeded by
// mhartid, 4 instructions per iteration, no memory traffic — every hart
// executes the same code pages out of the shared physically-indexed cache.
func rvSMPKernel(iters uint64) *rvasm.Program {
	p := rvasm.New(0x1000)
	p.Csrr(5, rv64.CSRMhartid)
	p.Li(10, iters)
	p.Addi(11, 5, 1) // per-hart seed
	p.Li(13, 6364136223846793005)
	p.Li(14, 1442695040888963407)
	p.Label("loop")
	p.Mul(11, 11, 13)
	p.Add(11, 11, 14)
	p.Addi(10, 10, -1)
	p.Bne(10, rvasm.X0, "loop")
	p.Ecall()
	return p
}
