package main

// Machine lifecycles: the only place the benchmark calls into the layers it
// measures. Every call into a layer is timed from outside, around the public
// function, and recorded as a span when tracing is on:
//
//	gen.build    adl.Parse → gen.Build (uncached, once per guest per pass)
//	hvm.new      hvm.New
//	core.new     core.New / core.NewQEMU / core.NewSMP
//	interp.new   interp.New
//	core.load    Engine.LoadImage / LoadUser (interp.load for the interpreter)
//	core.run     Engine.Run / SMP.RunParallel (interp.run for the interpreter)
//	readback     architectural state readback and the reference compare
//
// Counters come from Engine.Metrics() and interp.Machine.Metrics().

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"captive/internal/adl"
	"captive/internal/core"
	"captive/internal/difftest"
	"captive/internal/gen"
	"captive/internal/guest/ga64"
	"captive/internal/guest/port"
	"captive/internal/guest/rv64"
	"captive/internal/hvm"
	"captive/internal/interp"
	"captive/internal/metrics"
	"captive/internal/ssa"
)

// guest is one guest architecture: its port and the ADL source the offline
// pipeline builds its module from.
type guest struct {
	name   string
	port   port.Port
	source string
	banks  [][2]string // ADL bank → SSA registry class, as the guest package registers them
}

var (
	ga64Guest = &guest{name: "ga64", port: ga64.Port{}, source: ga64.Source,
		banks: [][2]string{{"X", "gpr"}, {"VL", "vl"}, {"VH", "vh"}, {"NZCV", "flags"}}}
	rv64Guest = &guest{name: "rv64", port: rv64.Port{}, source: rv64.Source,
		banks: [][2]string{{"X", "gpr"}, {"NZCV", "flags"}}}
)

// buildModule runs the offline pipeline for g at O4 without the guest
// package's per-level cache, so the cost lands in every pass.
func buildModule(g *guest) (*gen.Module, error) {
	file, err := adl.Parse(g.source)
	if err != nil {
		return nil, fmt.Errorf("%s: parse: %w", g.name, err)
	}
	reg := ssa.NewRegistry()
	for _, b := range g.banks {
		reg.AddBank(file.Bank(b[0]), b[1])
	}
	m, err := gen.Build(file, reg, ssa.O4)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", g.name, err)
	}
	return m, nil
}

// part is a block of bytes loaded into guest RAM without moving the PC.
type part struct {
	pa   uint64
	data []byte
}

// program is one guest input: a code image entered at entry, extra parts,
// the guest-physical windows compared byte for byte, and the register that
// carries the checksum.
type program struct {
	name   string
	guest  *guest
	image  []byte
	org    uint64
	entry  uint64
	extra  []part
	probes [][2]uint64
	sumReg int
	steps  uint64 // interpreter step limit
	budget uint64 // DBT simulated deci-cycle budget
}

// machineCfg is one machine configuration a program runs on.
type machineCfg struct {
	engine    string // interp | captive | qemu
	vcpus     int    // 0: one core.Engine driven by Run; n ≥ 1: core.SMP under RunParallel
	hvm       hvm.Config
	interpRAM int
}

func (c machineCfg) key(g *guest) string {
	return fmt.Sprintf("%s/%s/x%d/%d/%d/%d/%d", g.name, c.engine, c.vcpus,
		c.hvm.GuestRAMBytes, c.hvm.CodeCacheBytes, c.hvm.PTPoolBytes, c.interpRAM)
}

// outcome is everything one machine lifecycle produced.
type outcome struct {
	state      difftest.State // hart 0: registers, probed windows, instrs, exit code
	sums       []uint64       // checksum register per hart
	hartInstrs []uint64
	instrs     uint64 // retired guest instructions over every hart
	snap       metrics.Snapshot

	hvmNew, construct, load, run, readback, jit time.Duration
	// flushEst is the estimated share of run spent in whole-code-region
	// invalidations (traced runs only; see runner.flushNSPerMiB).
	flushEst time.Duration
	physMiB  float64
	heapMiB  float64 // live heap retained by the machine; 0 when not probed
	err      error
}

// lifecycle is the machine's end-to-end latency: construction to verified
// state.
func (o *outcome) lifecycle() time.Duration {
	return o.hvmNew + o.construct + o.load + o.run + o.readback
}

// runMachine runs p on one fresh machine. check, called inside the readback
// span, verifies the outcome. With probeHeap the live heap the machine
// retains is measured between load and run, outside every timed phase.
func (r *runner) runMachine(parent int, p *program, cfg machineCfg, mod *gen.Module, probeHeap bool, check func(*outcome) error) *outcome {
	o := &outcome{}
	r.isolate(parent)
	var base runtime.MemStats
	if probeHeap {
		runtime.ReadMemStats(&base)
	}
	r.machines++
	id := r.machines
	ms := r.tr.begin("machine", cfg.engine, id, parent)
	defer ms.end()
	var read func() error
	if cfg.engine == "interp" {
		read = r.runInterp(o, ms.id, id, p, cfg, mod, probeHeap, &base)
	} else {
		read = r.runDBT(o, ms.id, id, p, cfg, mod, probeHeap, &base)
	}
	if o.err != nil {
		return o
	}
	h := r.tr.begin("readback", cfg.engine, id, ms.id)
	o.err = read()
	if o.err == nil {
		o.err = check(o)
	}
	o.readback = h.end()
	return o
}

// runInterp constructs, loads and runs the reference interpreter; the
// returned function reads its state back.
func (r *runner) runInterp(o *outcome, ms, id int, p *program, cfg machineCfg, mod *gen.Module, probeHeap bool, base *runtime.MemStats) func() error {
	h := r.tr.begin("interp.new", cfg.engine, id, ms)
	m := interp.New(p.guest.port, mod, cfg.interpRAM)
	o.construct = h.end()

	h = r.tr.begin("interp.load", cfg.engine, id, ms)
	err := m.LoadImage(p.image, p.org, p.entry)
	for _, x := range p.extra {
		if err == nil && x.pa+uint64(len(x.data)) > uint64(len(m.Mem)) {
			err = fmt.Errorf("part at %#x exceeds guest RAM", x.pa)
		}
		if err == nil {
			copy(m.Mem[x.pa:], x.data)
		}
	}
	o.load = h.end()
	if err != nil {
		o.err = fmt.Errorf("interp load: %w", err)
		return nil
	}
	if probeHeap {
		o.heapMiB = liveHeapMiB(base)
	}
	o.physMiB = float64(len(m.Mem)) / (1 << 20)

	h = r.tr.begin("interp.run", cfg.engine, id, ms)
	_, err = m.Run(p.steps)
	o.run = h.end()
	o.snap = m.Metrics()
	o.instrs = m.Instrs
	o.hartInstrs = []uint64{m.Instrs}
	switch {
	case err != nil:
		o.err = fmt.Errorf("interp run: %w", err)
		return nil
	case !m.Halted:
		o.err = errors.New("interp: did not halt")
		return nil
	}
	return func() error {
		o.state = difftest.State{Regs: m.RegState(), Instrs: m.Instrs, ExitCode: m.ExitCode, RV64: p.guest == rv64Guest}
		for _, w := range p.probes {
			o.state.Data = append(o.state.Data, m.Mem[w[0]:w[1]]...)
		}
		o.sums = []uint64{m.Reg(p.sumReg)}
		return nil
	}
}

// runDBT constructs, loads and runs a Captive or QEMU-baseline machine; the
// returned function reads its state back.
func (r *runner) runDBT(o *outcome, ms, id int, p *program, cfg machineCfg, mod *gen.Module, probeHeap bool, base *runtime.MemStats) func() error {
	hc := cfg.hvm
	if cfg.vcpus > 0 {
		hc.VCPUs = cfg.vcpus
	}
	h := r.tr.begin("hvm.new", cfg.engine, id, ms)
	vm, err := hvm.New(hc)
	o.hvmNew = h.end()
	if err != nil {
		o.err = fmt.Errorf("hvm.New: %w", err)
		return nil
	}
	o.physMiB = float64(len(vm.Phys)) / (1 << 20)

	h = r.tr.begin("core.new", cfg.engine, id, ms)
	var harts []*core.Engine
	var run func(budget uint64) error
	switch {
	case cfg.vcpus > 0:
		var s *core.SMP
		if s, err = core.NewSMP(vm, p.guest.port, mod); err == nil {
			for i := 0; i < s.N(); i++ {
				harts = append(harts, s.VCPU(i))
			}
			run = s.RunParallel
		}
	case cfg.engine == "qemu":
		var e *core.Engine
		if e, err = core.NewQEMU(vm, p.guest.port, mod); err == nil {
			harts, run = []*core.Engine{e}, e.Run
		}
	default:
		var e *core.Engine
		if e, err = core.New(vm, p.guest.port, mod); err == nil {
			harts, run = []*core.Engine{e}, e.Run
		}
	}
	o.construct = h.end()
	if err != nil {
		o.err = fmt.Errorf("%s construct: %w", cfg.engine, err)
		return nil
	}

	h = r.tr.begin("core.load", cfg.engine, id, ms)
	for _, x := range p.extra {
		if err == nil {
			err = harts[0].LoadUser(x.data, x.pa)
		}
	}
	if err == nil {
		err = harts[0].LoadImage(p.image, p.org, p.entry)
	}
	for _, e := range harts[1:] {
		e.SetPC(p.entry)
	}
	o.load = h.end()
	if err != nil {
		o.err = fmt.Errorf("%s load: %w", cfg.engine, err)
		return nil
	}
	if probeHeap {
		o.heapMiB = liveHeapMiB(base)
	}

	h = r.tr.begin("core.run", cfg.engine, id, ms)
	err = run(p.budget)
	o.run = h.end()
	for _, e := range harts {
		s := e.Metrics()
		addSnap(&o.snap, s)
		o.hartInstrs = append(o.hartInstrs, s.GuestInstrs)
		o.instrs += s.GuestInstrs
	}
	o.jit = time.Duration(o.snap.DecodeNS + o.snap.TranslateNS + o.snap.RegallocNS + o.snap.EncodeNS)
	r.tr.child("core.jit", cfg.engine, id, h, o.jit)
	if r.flushNSPerMiB > 0 && o.snap.CacheFlushes > 0 {
		est := float64(o.snap.CacheFlushes) * float64(len(harts)) * r.flushNSPerMiB * float64(hc.CodeCacheBytes>>20)
		o.flushEst = min(time.Duration(est), o.run-o.jit)
		r.tr.child("core.flush~", cfg.engine, id, h, o.flushEst)
	}
	if err != nil {
		o.err = fmt.Errorf("%s run: %w (pc=%#x)", cfg.engine, err, harts[0].PC())
		return nil
	}
	for i, e := range harts {
		if halted, _ := e.Halted(); !halted {
			o.err = fmt.Errorf("%s: hart %d did not halt", cfg.engine, i)
			return nil
		}
	}

	return func() error {
		e := harts[0]
		_, code := e.Halted()
		o.state = difftest.State{Regs: e.RegState(), Instrs: e.GuestInstrs(), ExitCode: code, RV64: p.guest == rv64Guest}
		for _, w := range p.probes {
			buf := make([]byte, w[1]-w[0])
			if err := e.ReadRAM(w[0], buf); err != nil {
				return fmt.Errorf("%s readback: %w", cfg.engine, err)
			}
			o.state.Data = append(o.state.Data, buf...)
		}
		for _, e := range harts {
			o.sums = append(o.sums, e.Reg(p.sumReg))
		}
		return nil
	}
}

// isolate collects the previous machine's garbage outside every timed
// phase, so one machine's ~280 MiB of host physical memory is not billed to
// the next one's construction.
func (r *runner) isolate(parent int) {
	h := r.tr.begin("runtime.gc", "", 0, parent)
	runtime.GC()
	h.end()
}

// liveHeapMiB collects and returns the live heap growth since base.
func liveHeapMiB(base *runtime.MemStats) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return (float64(ms.HeapAlloc) - float64(base.HeapAlloc)) / (1 << 20)
}

// addSnap accumulates the counters of b into a.
func addSnap(a *metrics.Snapshot, b metrics.Snapshot) {
	a.GuestInstrs += b.GuestInstrs
	a.SimDeciCycles += b.SimDeciCycles
	a.DispatchLoops += b.DispatchLoops
	a.BlockChains += b.BlockChains
	a.HostFaults += b.HostFaults
	a.GuestFaults += b.GuestFaults
	a.MMIOEmulations += b.MMIOEmulations
	a.SMCInvals += b.SMCInvals
	a.TransFlushes += b.TransFlushes
	a.JITBlocks += b.JITBlocks
	a.JITLIRInsts += b.JITLIRInsts
	a.JITCodeBytes += b.JITCodeBytes
	a.CacheFlushes += b.CacheFlushes
	a.HostInsts += b.HostInsts
	a.HostTLBHits += b.HostTLBHits
	a.HostTLBMisses += b.HostTLBMisses
	a.HostPageFault += b.HostPageFault
	a.DecodeNS += b.DecodeNS
	a.TranslateNS += b.TranslateNS
	a.RegallocNS += b.RegallocNS
	a.EncodeNS += b.EncodeNS
}
