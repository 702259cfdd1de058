package main

// The three workloads. Each is a plan: the guests whose modules a pass
// builds, and the machine runs (jobs) a pass executes in order. Inputs are
// made once from the seed; every pass replays the same plan, so the
// deterministic counters of two passes must agree exactly.

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"captive/internal/bench"
	"captive/internal/difftest"
	"captive/internal/hvm"
)

// job is one machine run and how its result is checked: against the state
// of an earlier job (ref ≥ 0), against recorded reference values (want), or
// both.
type job struct {
	prog *program
	cfg  machineCfg
	ref  int
	want *expect
	// nondet marks runs whose simulated-cycle and JIT counters depend on how
	// parallel harts interleave; they are left out of the determinism check.
	nondet bool
}

type plan struct {
	guests []*guest
	jobs   []job
	// configs names each machine configuration for the report header.
	configs map[string]hvm.Config
}

var workloadNames = []string{"spec-steady", "vm-churn", "sys-flush"}

func newPlan(name string, seed int64) (*plan, error) {
	switch name {
	case "spec-steady":
		return specSteady(seed)
	case "vm-churn":
		return vmChurn(seed, churnPrograms)
	case "sys-flush":
		return sysFlush(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// Machine sizes. The difftest size is the one the differential lanes use.
var (
	defaultCfg  = hvm.DefaultConfig()
	difftestCfg = hvm.Config{GuestRAMBytes: difftest.RAMBytes, CodeCacheBytes: 4 << 20, PTPoolBytes: 2 << 20}
)

const (
	kernelBudget  = 600_000_000_000 // deci-cycles: 60 simulated seconds
	kernelSteps   = 2_000_000_000
	programBudget = 4_000_000_000 // the difftest harness's limits
	programSteps  = 2_000_000
)

func dbt(engine string, c hvm.Config) machineCfg { return machineCfg{engine: engine, hvm: c} }
func interpOn(ram int) machineCfg                { return machineCfg{engine: "interp", interpRAM: ram} }

// specKernels is the fixed subset of the Fig. 17 SPECint-shaped kernels;
// specInterp is the one the reference interpreter also runs. Their run
// times on the three engines interleave so that no two machines of a pass
// take about as long as each other around the median.
var (
	specKernels = []string{"473.astar", "445.gobmk"}
	specInterp  = "473.astar"
)

// specSteady: the kernels under the mini-OS, each on a fresh Captive and a
// fresh QEMU-baseline machine (the seed orders them), then smpKernel on a
// two-hart Captive machine under RunParallel and on a one-hart RunParallel
// machine, the reference for parallel efficiency.
func specSteady(seed int64) (*plan, error) {
	smp1, smp2 := defaultCfg, defaultCfg
	smp1.VCPUs, smp2.VCPUs = 1, 2
	pl := &plan{guests: []*guest{ga64Guest, rv64Guest},
		configs: map[string]hvm.Config{"captive, qemu": defaultCfg, "captive x1": smp1, "captive x2": smp2}}
	rng := rand.New(rand.NewSource(seed))
	names := append([]string(nil), specKernels...)
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	for _, name := range names {
		w, ok := bench.ByName(name)
		if !ok {
			return nil, fmt.Errorf("no kernel %s", name)
		}
		img, err := bench.BuildSystemImage(w.Build())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		p := &program{name: "ga64/" + name, guest: ga64Guest, image: img.Kernel, org: bench.KernelBase,
			entry: img.Entry, extra: []part{{img.UserPA, img.User}}, sumReg: 1,
			steps: kernelSteps, budget: kernelBudget}
		want := expectFor(p.name)
		if name == specInterp {
			pl.jobs = append(pl.jobs, job{prog: p, cfg: interpOn(defaultCfg.GuestRAMBytes), ref: -1, want: want})
		}
		pl.jobs = append(pl.jobs,
			job{prog: p, cfg: dbt("captive", defaultCfg), ref: -1, want: want},
			job{prog: p, cfg: dbt("qemu", defaultCfg), ref: -1, want: want})
	}

	k := smpKernel()
	img, err := k.Assemble()
	if err != nil {
		return nil, err
	}
	word := binary.LittleEndian.Uint32(img[k.Addr("step")-k.Org():])
	lcgSeed := uint64(rng.Int63())
	p := &program{name: fmt.Sprintf("rv64/smp-lcg-%d", smpRounds), guest: rv64Guest, image: img,
		org: 0x1000, entry: 0x1000, extra: []part{smpParamsPart(lcgSeed, smpRounds, word)}, sumReg: 11,
		steps: kernelSteps, budget: kernelBudget}
	for harts := 1; harts <= 2; harts++ {
		want := expectFor(p.name)
		for h := 0; h < harts; h++ {
			want.sums = append(want.sums, lcgSum(lcgSeed, uint64(h), smpRounds))
		}
		pl.jobs = append(pl.jobs, job{prog: p, cfg: machineCfg{engine: "captive", vcpus: harts, hvm: defaultCfg},
			ref: -1, want: want, nondet: harts > 1})
	}
	return pl, nil
}

// churnPrograms is the length of the vm-churn program stream.
const churnPrograms = 36

// vmChurn: a seeded stream of short generated programs, alternating the GA64
// and RV64 user-lane generators. Each runs on a fresh difftest-sized
// machine on interp (the reference), Captive and QEMU, all at O4, and every
// DBT state must equal the interpreter's.
func vmChurn(seed int64, n int) (*plan, error) {
	pl := &plan{guests: []*guest{ga64Guest, rv64Guest},
		configs: map[string]hvm.Config{"captive, qemu": difftestCfg}}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		s, ops := rng.Int63(), 40+rng.Intn(5)*30 // the difftest sweep sizes
		var p *program
		if i%2 == 0 {
			dp, err := difftest.Generate(s, ops)
			if err != nil {
				return nil, err
			}
			p = ga64Program(fmt.Sprintf("ga64/gen-%d", s), dp)
		} else {
			dp, err := difftest.GenerateRV64(s, ops)
			if err != nil {
				return nil, err
			}
			p = &program{name: fmt.Sprintf("rv64/gen-%d", s), guest: rv64Guest, image: dp.Image,
				org: difftest.RVOrg, entry: difftest.RVOrg, sumReg: 11,
				probes: [][2]uint64{{difftest.RVProbeStart, difftest.RVProbeEnd}, {difftest.RVStackProbe, difftest.RVStackEnd}},
				steps:  programSteps, budget: programBudget}
		}
		pl.addChecked(p, interpOn(difftest.RAMBytes), difftestCfg)
	}
	return pl, nil
}

// ga64Program wraps a generated GA64 difftest program.
func ga64Program(name string, dp *difftest.Program) *program {
	return &program{name: name, guest: ga64Guest, image: dp.Image, org: difftest.Org, entry: difftest.Org,
		extra:  []part{{difftest.HandlerBase, dp.Handler}},
		probes: [][2]uint64{{difftest.ProbeStart, difftest.ProbeEnd}, {difftest.StackProbe, difftest.StackEnd}},
		sumReg: 1, steps: programSteps, budget: programBudget}
}

// addChecked appends an interpreter reference run of p followed by a Captive
// and a QEMU run whose full state must equal it.
func (pl *plan) addChecked(p *program, ref machineCfg, c hvm.Config) {
	r := len(pl.jobs)
	pl.jobs = append(pl.jobs,
		job{prog: p, cfg: ref, ref: -1},
		job{prog: p, cfg: dbt("captive", c), ref: r},
		job{prog: p, cfg: dbt("qemu", c), ref: r})
}

// smcPrograms is the number of seeded GA64 self-modifying programs per
// sys-flush pass, and smcOps their size in generator constructs (fixed, so
// that the seed changes what the programs do but not how much).
const (
	smcPrograms = 8
	smcOps      = 100
)

// sysFlush: the sv39 supervisor kernel (two translation flushes per pass)
// on interp, Captive and QEMU, plus seeded GA64 self-modifying programs,
// all DBT machines at hvm.DefaultConfig().
func sysFlush(seed int64) (*plan, error) {
	pl := &plan{guests: []*guest{rv64Guest, ga64Guest}, configs: map[string]hvm.Config{"captive, qemu": defaultCfg}}
	vmsum := func(passes uint64) (*program, error) {
		img, err := vmsumKernel(passes).Assemble()
		if err != nil {
			return nil, err
		}
		return &program{name: fmt.Sprintf("rv64/vmsum-%d", passes), guest: rv64Guest, image: img, org: 0x1000,
			entry: 0x1000, sumReg: 11, steps: kernelSteps, budget: kernelBudget}, nil
	}
	long, err := vmsum(vmsumPasses)
	if err != nil {
		return nil, err
	}
	short, err := vmsum(vmsumPassesQEMU)
	if err != nil {
		return nil, err
	}
	r := len(pl.jobs)
	pl.jobs = append(pl.jobs,
		job{prog: long, cfg: interpOn(difftest.RAMBytes), ref: -1, want: expectFor(long.name)},
		job{prog: long, cfg: dbt("captive", defaultCfg), ref: r, want: expectFor(long.name)},
		job{prog: short, cfg: dbt("qemu", defaultCfg), ref: -1, want: expectFor(short.name)})
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < smcPrograms; i++ {
		s := rng.Int63()
		dp, err := difftest.GenerateSMC(s, smcOps)
		if err != nil {
			return nil, err
		}
		pl.addChecked(ga64Program(fmt.Sprintf("ga64/smc-%d", s), dp), interpOn(difftest.RAMBytes), defaultCfg)
	}
	return pl, nil
}
