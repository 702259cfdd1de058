package bench

// The model report: every row of the engine × guest × workload matrix with
// the simulated-time model's view of its run — retired guest instructions,
// simulated deci-cycles and the guest checksum. A change that must leave
// the model alone (any perf or refactoring change to the engines or VX64)
// checks a fresh report against a committed one (BENCH_<n>.json at the repo
// root, CI's model gate): every row present in both must agree exactly.
// Host wall-clock has its own harness, perfbench, which repeats its runs;
// this report records none.

import (
	"encoding/json"
	"fmt"
	"os"

	"captive/internal/guest/ga64"
	"captive/internal/guest/port"
	"captive/internal/guest/rv64"
	rvasm "captive/internal/guest/rv64/asm"
	"captive/internal/metrics"
)

// ModelRow is one engine × guest × workload row of the model report.
type ModelRow struct {
	Guest       string `json:"guest"`
	Workload    string `json:"workload"`
	Engine      string `json:"engine"`
	GuestInstrs uint64 `json:"guest_instrs"`
	// SimDeciCycles is the simulated host clock consumed by the run (0 for
	// the interpreter, which has no host-cycle model).
	SimDeciCycles uint64 `json:"sim_deci_cycles"`
	Checksum      uint64 `json:"checksum"`
	// Metrics is hart 0's metrics snapshot for the run. Its JIT phase
	// times are host wall-clock and vary run to run; the gate never reads
	// this section.
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
}

// Key identifies a row across reports.
func (r ModelRow) Key() string { return r.Engine + "/" + r.Guest + "/" + r.Workload }

// ModelReport is the model report written to BENCH_*.json.
type ModelReport struct {
	Schema string     `json:"schema"`
	Note   string     `json:"note"`
	Short  bool       `json:"short"`
	Rows   []ModelRow `json:"rows"`
}

// Report schemas: reports are written as modelSchema; the committed
// guest-MIPS reports (BENCH_5/7/8.json) carry legacySchema and the same
// row fields, plus wall-clock fields this report no longer reads.
const (
	modelSchema  = "captive/model/v1"
	legacySchema = "captive/guest-mips/v1"
)

// modelRun is one planned row of the model report.
type modelRun struct {
	name     string
	kind     EngineKind
	guest    port.Port
	img      Image
	parallel int // truly parallel vCPUs; 0 = one vCPU on the plain engine
}

// modelRuns plans the matrix. Full mode covers the Fig. 17 SPECint-shaped
// workloads and the RV64 retarget kernels on every engine, plus the SMP
// scaling kernel on 1, 2 and 4 parallel vCPUs. Short mode (the CI gate)
// keeps three GA64 kernels (pointer-chasing, DP recurrence, streaming),
// the RV64 factorial kernel and a tenth-size SMP kernel on 1 and 2 vCPUs,
// whose rows are keyed apart from the full-size ones.
func modelRuns(short bool) ([]modelRun, error) {
	var runs []modelRun
	add := func(name string, g port.Port, img Image) {
		for _, k := range []EngineKind{EngineCaptive, EngineQEMU, EngineInterp} {
			runs = append(runs, modelRun{name: name, kind: k, guest: g, img: img})
		}
	}
	for _, w := range Integer() {
		if short && w.Name != "429.mcf" && w.Name != "456.hmmer" && w.Name != "462.libquantum" {
			continue
		}
		img, err := BuildSystemImage(w.Build())
		if err != nil {
			return nil, err
		}
		add(w.Name, ga64.Port{}, img)
	}
	rvWorkloads := RVWorkloads()
	if short {
		rvWorkloads = rvWorkloads[:1]
	}
	for _, w := range rvWorkloads {
		img, err := rvImage(w.Build())
		if err != nil {
			return nil, err
		}
		add(w.Name, rv64.Port{}, img)
	}
	counts, iters, suffix := []int{1, 2, 4}, uint64(4_000_000), ""
	if short {
		counts, iters, suffix = []int{1, 2}, 400_000, "-short"
	}
	img, err := rvImage(rvSMPKernel(iters))
	if err != nil {
		return nil, err
	}
	for _, n := range counts {
		name := fmt.Sprintf("smp-lcg-x%d%s", n, suffix)
		runs = append(runs, modelRun{name: name, kind: EngineCaptive, guest: rv64.Port{}, img: img, parallel: n})
	}
	return runs, nil
}

// rvImage assembles an RV64 kernel into an image entered at its origin;
// RV64 kernels are assembled at KernelBase.
func rvImage(p *rvasm.Program) (Image, error) {
	b, err := p.Assemble()
	return Image{Kernel: b, Entry: p.Org()}, err
}

// RunModel runs the model matrix (short: the CI subset) and returns the
// report. Every row builds, loads and runs a fresh machine.
func RunModel(short bool) (*ModelReport, error) {
	runs, err := modelRuns(short)
	if err != nil {
		return nil, err
	}
	rep := &ModelReport{
		Schema: modelSchema,
		Note:   "sim_deci_cycles, guest_instrs and checksum are the simulated-time model; a change must keep them bit-identical unless it means to move the model",
		Short:  short,
	}
	for _, r := range runs {
		res, err := run(r.kind, r.guest, r.img, r.name, r.parallel, false)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, ModelRow{
			Guest: res.Guest, Workload: res.Workload, Engine: res.Engine.String(),
			GuestInstrs: res.GuestInstrs, SimDeciCycles: res.SimDeciCycles, Checksum: res.Checksum,
			Metrics: &res.Metrics,
		})
	}
	return rep, nil
}

// CheckBaseline is the model gate: it returns an error naming the first row
// whose guest instruction count, checksum or simulated cycle count differs
// from the baseline's row of the same key. Rows missing from the baseline
// are skipped.
func (r *ModelReport) CheckBaseline(base *ModelReport) error {
	byKey := make(map[string]ModelRow, len(base.Rows))
	for _, row := range base.Rows {
		byKey[row.Key()] = row
	}
	for _, row := range r.Rows {
		b, ok := byKey[row.Key()]
		if !ok {
			continue
		}
		if b.GuestInstrs != row.GuestInstrs || b.Checksum != row.Checksum {
			return fmt.Errorf("bench: %s: guest-visible state moved vs baseline (instrs %d→%d, chk %#x→%#x)",
				row.Key(), b.GuestInstrs, row.GuestInstrs, b.Checksum, row.Checksum)
		}
		if b.SimDeciCycles != row.SimDeciCycles {
			return fmt.Errorf("bench: %s: simulated cycles moved vs baseline (%d→%d) — the model changed",
				row.Key(), b.SimDeciCycles, row.SimDeciCycles)
		}
	}
	return nil
}

// WriteJSON writes the report to path (pretty-printed, trailing newline).
func (r *ModelReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadModelReport loads a report written by WriteJSON or a committed
// guest-MIPS report.
func ReadModelReport(path string) (*ModelReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep ModelReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if rep.Schema != modelSchema && rep.Schema != legacySchema {
		return nil, fmt.Errorf("bench: %s: unexpected schema %q", path, rep.Schema)
	}
	return &rep, nil
}

// String renders the report as an aligned text table.
func (r *ModelReport) String() string {
	out := "Model report (simulated time)\n"
	for _, row := range r.Rows {
		out += fmt.Sprintf("  %-26s %-8s %10d instrs  %12d sim-dcycles  chk %#x\n",
			row.Guest+"/"+row.Workload, row.Engine, row.GuestInstrs, row.SimDeciCycles, row.Checksum)
	}
	return out
}
