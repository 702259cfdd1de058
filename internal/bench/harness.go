package bench

import (
	"fmt"

	"captive/internal/core"
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

// Result is the outcome of one harness run on the simulated-time axis: the
// counts are summed over every hart, and hart 0 supplies the metrics,
// profile and console.
type Result struct {
	Workload      string
	Guest         string // the port's architecture: ga64 or rv64
	Engine        EngineKind
	GuestInstrs   uint64
	SimDeciCycles uint64 // simulated host clock (0 for the interpreter)
	Checksum      uint64 // the checksum register, XORed over harts
	ExitCode      uint64
	Metrics       metrics.Snapshot
	Profile       []core.BlockProfile // hottest first; nil for the interpreter
	Console       string
}

// Seconds is the run's simulated wall-clock time (deci-cycles @ 3.5 GHz).
func (r Result) Seconds() float64 { return perf.Seconds(r.SimDeciCycles) }

// Key identifies the run's engine, guest and workload.
func (r Result) Key() string { return r.Engine.String() + "/" + r.Guest + "/" + r.Workload }

// Harness machine bounds: 64 MiB of guest RAM, 60 simulated seconds of DBT
// budget, and a step bound for the reference interpreter, which has no
// host-cycle model.
const (
	ramBytes    = 64 << 20
	budget      = 600_000_000_000
	interpSteps = 2_000_000_000
)

// checksumReg is the register the bench workloads of each guest leave
// their checksum in.
var checksumReg = map[string]int{"ga64": 1, "rv64": 11}

// spec describes the machine a harness run of kind builds for guest g: a
// host VM with a 32 MiB code cache and a 4 MiB page-table pool around the
// guest RAM.
func spec(kind EngineKind, g port.Port) machine.Spec {
	s := machine.Spec{
		Config: hvm.Config{GuestRAMBytes: ramBytes, CodeCacheBytes: 32 << 20, PTPoolBytes: 4 << 20},
		Port:   g, Engine: kind.String(),
	}
	if kind == EngineCaptiveSoftFP {
		s.Engine, s.SoftFP = "captive", true
	}
	return s
}

// run is the harness's one build-load-run path: it builds the machine of
// kind for guest g, with parallel truly parallel vCPUs when parallel > 0
// and block chaining off when noChain, loads img, runs it to halt and
// collects the Result. An RV64 guest must exit cleanly: its exit code is
// non-zero only when an exception halted the machine.
func run(kind EngineKind, g port.Port, img Image, name string, parallel int, noChain bool) (Result, error) {
	res := Result{Workload: name, Guest: g.Arch(), Engine: kind}
	sp := spec(kind, g)
	sp.NoChain = noChain
	if parallel > 0 {
		sp.VCPUs, sp.Parallel = parallel, true
	}
	m, err := machine.New(sp)
	if err == nil {
		err = m.Load(img.Kernel, KernelBase, img.Entry)
	}
	if err == nil {
		err = m.LoadData(img.User, img.UserPA)
	}
	if err == nil {
		err = m.LoadData(img.User2, img.User2PA)
	}
	if err != nil {
		return res, err
	}
	h := m.Hart(0)
	if err := m.Run(interpSteps, budget); err != nil {
		return res, fmt.Errorf("bench %s: %w (pc=%#x)", res.Key(), err, h.PC())
	}
	if !m.Halted() {
		return res, fmt.Errorf("bench %s: did not halt", res.Key())
	}
	for i := 0; i < m.Harts(); i++ {
		hi := m.Hart(i)
		res.GuestInstrs += hi.GuestInstrs()
		res.SimDeciCycles += hi.Metrics().SimDeciCycles
		res.Checksum ^= hi.Reg(checksumReg[res.Guest])
	}
	_, res.ExitCode = h.Halted()
	if res.Guest == "rv64" && res.ExitCode != 0 {
		return res, fmt.Errorf("bench %s: exit code %#x", res.Key(), res.ExitCode)
	}
	res.Metrics = h.Metrics()
	res.Profile = m.Profile()
	res.Console = m.Console()
	return res, nil
}

// RunImage executes a GA64 guest image on the chosen engine.
func RunImage(kind EngineKind, img Image, name string) (Result, error) {
	return run(kind, ga64.Port{}, img, name, 0, false)
}

// RunWorkload builds and executes a SPEC-shaped workload under the mini-OS.
func RunWorkload(kind EngineKind, w Workload) (Result, error) {
	img, err := BuildSystemImage(w.Build())
	if err != nil {
		return Result{}, err
	}
	return RunImage(kind, img, w.Name)
}

// RunMicro builds and executes a SimBench micro-benchmark (bare metal).
func RunMicro(kind EngineKind, m Micro) (Result, error) {
	img, err := BareMetal(m.Build())
	if err != nil {
		return Result{}, err
	}
	return RunImage(kind, img, m.Name)
}

// Compare runs a workload on Captive and the QEMU baseline, validates the
// checksums agree, and returns both results.
func Compare(w Workload) (captive, qemu Result, err error) {
	captive, err = RunWorkload(EngineCaptive, w)
	if err != nil {
		return
	}
	qemu, err = RunWorkload(EngineQEMU, w)
	if err != nil {
		return
	}
	if captive.Checksum != qemu.Checksum || captive.ExitCode != qemu.ExitCode {
		err = fmt.Errorf("bench %s: engines disagree: captive chk=%#x exit=%d, qemu chk=%#x exit=%d",
			w.Name, captive.Checksum, captive.ExitCode, qemu.Checksum, qemu.ExitCode)
	}
	return
}
