package bench

import (
	"fmt"
	"time"

	"captive/internal/guest/ga64"
	"captive/internal/guest/port"
	"captive/internal/hvm"
	"captive/internal/machine"
	"captive/internal/metrics"
	"captive/internal/perf"
)

// EngineKind selects an execution engine for a harness run.
type EngineKind int

// Engine kinds.
const (
	EngineCaptive EngineKind = iota
	EngineQEMU
	EngineCaptiveSoftFP // §3.6.2 ablation
	EngineInterp
)

func (k EngineKind) String() string {
	switch k {
	case EngineCaptive:
		return "captive"
	case EngineQEMU:
		return "qemu"
	case EngineCaptiveSoftFP:
		return "captive-softfp"
	default:
		return "interp"
	}
}

// Result is the outcome of one workload run.
type Result struct {
	Workload    string
	Engine      EngineKind
	Cycles      uint64 // deci-cycles of simulated host time
	GuestInstrs uint64
	Seconds     float64 // simulated wall-clock (cycles @ 3.5 GHz)
	Checksum    uint64  // guest X1 at exit (cross-engine validation)
	ExitCode    uint64
	Wall        time.Duration    // real time spent simulating
	Metrics     metrics.Snapshot // the engine's counters and JIT statistics
	Console     string
}

// Options tunes a harness run.
type Options struct {
	ChainingOff bool
	RAMBytes    int
	Budget      uint64 // deci-cycles; 0 = default
}

func (o Options) ram() int {
	if o.RAMBytes == 0 {
		return 64 << 20
	}
	return o.RAMBytes
}

func (o Options) budget() uint64 {
	if o.Budget == 0 {
		return 600_000_000_000 // 60 simulated seconds
	}
	return o.Budget
}

// interpSteps bounds the reference interpreter's runs (steps, not
// simulated cycles: it has no host-cycle model).
const interpSteps = 2_000_000_000

// spec describes the machine a harness run of kind builds for guest g: a
// host VM with a 32 MiB code cache and a 4 MiB page-table pool around
// opt's guest RAM.
func spec(kind EngineKind, g port.Port, opt Options) machine.Spec {
	s := machine.Spec{
		Config: hvm.Config{GuestRAMBytes: opt.ram(), CodeCacheBytes: 32 << 20, PTPoolBytes: 4 << 20},
		Port:   g, Engine: kind.String(), NoChain: opt.ChainingOff,
	}
	if kind == EngineCaptiveSoftFP {
		s.Engine, s.SoftFP = "captive", true
	}
	return s
}

// loadImage loads a GA64 bench image: the kernel entered at img.Entry and
// the user programs beside it (an absent one is an empty, no-op load).
func loadImage(m *machine.Machine, img Image) error {
	err := m.Load(img.Kernel, KernelBase, img.Entry)
	if err == nil {
		err = m.LoadData(img.User, img.UserPA)
	}
	if err == nil {
		err = m.LoadData(img.User2, img.User2PA)
	}
	return err
}

// RunImage executes a guest image on the chosen engine.
func RunImage(kind EngineKind, img Image, name string, opt Options) (Result, error) {
	res := Result{Workload: name, Engine: kind}
	start := time.Now()
	m, err := machine.New(spec(kind, ga64.Port{}, opt))
	if err != nil {
		return res, err
	}
	if err := loadImage(m, img); err != nil {
		return res, err
	}
	h := m.Hart(0)
	if err := m.Run(interpSteps, opt.budget()); err != nil {
		return res, fmt.Errorf("bench %s/%s: %w (pc=%#x)", name, kind, err, h.PC())
	}
	if !m.Halted() {
		return res, fmt.Errorf("bench %s/%s: did not halt", name, kind)
	}
	res.Metrics = h.Metrics()
	res.Cycles = res.Metrics.SimDeciCycles
	res.Seconds = perf.Seconds(res.Cycles)
	res.GuestInstrs = h.GuestInstrs()
	res.Checksum = h.Reg(1)
	_, res.ExitCode = h.Halted()
	res.Wall = time.Since(start)
	res.Console = m.Console()
	return res, nil
}

// RunWorkload builds and executes a SPEC-shaped workload under the mini-OS.
func RunWorkload(kind EngineKind, w Workload, opt Options) (Result, error) {
	img, err := BuildSystemImage(w.Build())
	if err != nil {
		return Result{}, err
	}
	return RunImage(kind, img, w.Name, opt)
}

// RunMicro builds and executes a SimBench micro-benchmark (bare metal).
func RunMicro(kind EngineKind, m Micro, opt Options) (Result, error) {
	img, err := BareMetal(m.Build())
	if err != nil {
		return Result{}, err
	}
	return RunImage(kind, img, m.Name, opt)
}

// Compare runs a workload on Captive and the QEMU baseline, validates the
// checksums agree, and returns both results.
func Compare(w Workload, opt Options) (captive, qemu Result, err error) {
	captive, err = RunWorkload(EngineCaptive, w, opt)
	if err != nil {
		return
	}
	qemu, err = RunWorkload(EngineQEMU, w, opt)
	if err != nil {
		return
	}
	if captive.Checksum != qemu.Checksum || captive.ExitCode != qemu.ExitCode {
		err = fmt.Errorf("bench %s: engines disagree: captive chk=%#x exit=%d, qemu chk=%#x exit=%d",
			w.Name, captive.Checksum, captive.ExitCode, qemu.Checksum, qemu.ExitCode)
	}
	return
}
