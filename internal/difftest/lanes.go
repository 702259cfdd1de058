package difftest

import (
	"errors"

	"captive/internal/guest/ga64"
	"captive/internal/guest/rv64"
	"captive/internal/machine"
)

// The lanes. Generators and memory maps live with each lane's generator;
// corpora in corpus.go. The trace lane is any lane's Traced() copy.

var (
	ga64Probes = [][2]uint64{{ProbeStart, ProbeEnd}, {StackProbe, StackEnd}}
	rv64Probes = [][2]uint64{{RVProbeStart, RVProbeEnd}, {RVStackProbe, RVStackEnd}}
)

// GA64Lane is the GA64 user-level lane: EL1 programs over the full
// construct set.
var GA64Lane = &Lane{
	Name: "ga64", Generate: Generate, Port: ga64.Port{}, Org: Org, Nop: nopWord, Probes: ga64Probes,
	Corpus: RegressionSeeds, Sweep: Sweep{Base: 1_000_000, N: 500, Short: 50, Step: 30},
}

// MMULane runs the user construct set at EL0 under guest translation.
var MMULane = &Lane{
	Name: "mmu", Generate: GenerateMMU, Port: ga64.Port{}, Org: Org, Nop: nopWord, Probes: ga64Probes,
	Corpus: MMURegressionSeeds, Sweep: Sweep{Base: 5000, N: 100, Short: 15, Step: 40},
}

// MMUFaultLane takes permission and translation aborts mid-block at EL0.
// Its -short sweep stays at 50 seeds: it is the lane that proves the
// interpreter's fault-aware, block-granular accounting.
var MMUFaultLane = &Lane{
	Name: "mmufault", Generate: GenerateMMUFault, Port: ga64.Port{}, Org: Org, Nop: nopWord, Probes: ga64Probes,
	Corpus: MMUFaultRegressionSeeds, Sweep: Sweep{Base: 7000, N: 150, Short: 50, Step: 40},
}

// SMCLane rewrites already-executed code and requires both DBT engines to
// have taken the SMC invalidation path.
var SMCLane = &Lane{
	Name: "smc", Generate: GenerateSMC, Port: ga64.Port{}, Org: Org, Nop: nopWord, Probes: ga64Probes,
	Post: func(id EngineID, out Outcome) error {
		if id.Name != "interp" && out.Metrics.SMCInvals == 0 {
			return errors.New("retired no SMC invalidations (protection path not exercised)")
		}
		return nil
	},
	Corpus: SMCRegressionSeeds, Sweep: Sweep{Base: 6000, N: 100, Short: 15, Step: 40},
}

// IRQLane takes vectored timer interrupts driven by virtual time.
var IRQLane = &Lane{
	Name: "irq", Generate: GenerateIRQ, Port: ga64.Port{}, Org: Org, Nop: nopWord, Probes: ga64Probes,
	Corpus: IRQRegressionSeeds, Sweep: Sweep{Base: 6_000_000, N: 120, Short: 12, Step: 30},
}

// RV64Lane is the RV64 user-level lane.
var RV64Lane = &Lane{
	Name: "rv64", Generate: GenerateRV64, Port: rv64.Port{}, Org: RVOrg, Nop: rvNopWord, Probes: rv64Probes,
	CleanExit: true,
	Corpus:    RV64RegressionSeeds, Sweep: Sweep{Base: 2_000_000, N: 300, Short: 30, Step: 30},
}

// RV64SysLane is the paged, trapping RV64 full-system lane; its fault
// window and CSRs are compared too.
var RV64SysLane = &Lane{
	Name: "rv64sys", Generate: GenerateRV64Sys, Port: rv64.Port{}, Org: RVOrg, Nop: rvNopWord,
	Probes: append(rv64Probes[:2:2], [2]uint64{RVSysFaultProbeStart, RVSysFaultProbeEnd}),
	Snapshot: func(_ EngineID, _ *Program, h machine.Hart, st *State) {
		st.CSRs = rvsysSnapshot(rv64.RawSys(h.Sys()))
	},
	Corpus: RV64SysRegressionSeeds, Sweep: Sweep{Base: 4000, N: 200, Short: 25, Step: 40},
}

// RV64IRQLane is the RV64 interrupt lane; the interrupt CSRs are compared.
var RV64IRQLane = &Lane{
	Name: "rv64irq", Generate: GenerateRV64IRQ, Port: rv64.Port{}, Org: RVOrg, Nop: rvNopWord, Probes: rv64Probes,
	Snapshot: func(_ EngineID, _ *Program, h machine.Hart, st *State) {
		st.CSRs = rvirqSnapshot(rv64.RawSys(h.Sys()))
	},
	Corpus: RV64IRQRegressionSeeds, Sweep: Sweep{Base: 7_000_000, N: 120, Short: 12, Step: 30},
}

// SMPLane runs two RV64 harts under the deterministic scheduler.
var SMPLane = &Lane{
	Name: "smp", Generate: GenerateRV64SMP, Port: rv64.Port{}, Harts: SMPHarts, Org: RVOrg, Nop: rvNopWord,
	Probes: [][2]uint64{{RVSMPProbeStart, RVSMPProbeEnd}, {RVStackProbe, RVStackEnd}, {RVSMPStackH1Probe, RVSMPStackH1End}},
	Corpus: SMPRegressionSeeds, Sweep: Sweep{Base: 8_000_000, N: 120, Short: 12, Step: 30},
}
