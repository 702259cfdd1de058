// Package machine is the one place a guest machine is built: a Spec names
// the guest port, the engine (the reference interpreter, the Captive DBT or
// the QEMU-style baseline), the offline optimisation level and the host VM
// sizing, and New turns it into a Machine that loads, runs and reads back
// state the same way whichever engine is underneath. This is the
// retargetability claim at the harness level: a caller never spells out
// "make a VM, pick an engine, load, run" for a particular engine or guest.
//
// A one-vCPU machine is one core.Engine or one interp.Machine; a multi-vCPU
// machine is a core.SMP or an interp.Cluster under the deterministic
// round-robin scheduler, or, with Spec.Parallel, a Captive core.SMP whose
// harts run truly parallel.
package machine

import (
	"fmt"

	"captive/internal/core"
	"captive/internal/gen"
	"captive/internal/guest/port"
	"captive/internal/hvm"
	"captive/internal/interp"
	"captive/internal/metrics"
	"captive/internal/ssa"
	"captive/internal/trace"
)

// quantum is the deterministic scheduler's slice in retired instructions.
// It is part of the compared behaviour of a multi-vCPU run, so every engine
// and every caller uses the same value.
const quantum = 512

// Spec describes one machine. The embedded hvm.Config sizes it for every
// engine alike and is validated by hvm's rule even when the interpreter,
// which allocates only the guest RAM, runs it.
type Spec struct {
	hvm.Config
	Port   port.Port
	Engine string       // "interp", "captive" or "qemu"
	Level  ssa.OptLevel // offline optimisation level; outside 1..4 means O4

	// Parallel runs the vCPUs truly parallel, one goroutine each (Captive
	// only). It selects the SMP engine even for one vCPU. Otherwise a
	// multi-vCPU machine runs under the deterministic scheduler.
	Parallel bool
	SoftFP   bool            // DBT: helper-call floating point (§3.6.2 ablation)
	NoChain  bool            // DBT: disable block chaining
	Trace    *trace.Recorder // attached to vCPU 0 when non-nil
}

// Hart is the per-vCPU view of a machine. *core.Engine implements it; the
// interpreter's harts are adapted.
type Hart interface {
	LoadImage(data []byte, pa, entry uint64) error
	LoadUser(data []byte, pa uint64) error
	ReadRAM(pa uint64, dst []byte) error
	Reg(n int) uint64
	SetReg(n int, v uint64)
	FReg(n int) uint64
	PC() uint64
	SetPC(v uint64)
	RegState() []byte
	Sys() port.Sys
	GuestInstrs() uint64
	Halted() (bool, uint64)
	Metrics() metrics.Snapshot
	Console() string
	SetTrace(r *trace.Recorder)
}

// interpHart adapts an interpreter machine to Hart.
type interpHart struct{ *interp.Machine }

func (h interpHart) LoadUser(data []byte, pa uint64) error { return h.LoadData(data, pa) }
func (h interpHart) GuestInstrs() uint64                   { return h.Instrs }
func (h interpHart) Halted() (bool, uint64)                { return h.Machine.Halted, h.ExitCode }

// Machine is a built guest machine.
type Machine struct {
	harts []Hart
	run   func(steps, deciCycles uint64) error
}

// New validates s and builds its machine.
func New(s Spec) (*Machine, error) {
	if err := s.Config.Validate(); err != nil {
		return nil, err
	}
	if s.Port == nil {
		return nil, fmt.Errorf("machine: no guest port")
	}
	switch s.Engine {
	case "interp", "captive", "qemu":
	default:
		return nil, fmt.Errorf("machine: unknown engine %q", s.Engine)
	}
	if s.Parallel && s.Engine != "captive" {
		return nil, fmt.Errorf("machine: %s runs vCPUs only under the deterministic scheduler", s.Engine)
	}
	level := s.Level
	if level < ssa.O1 || level > ssa.O4 {
		level = ssa.O4
	}
	module, err := s.Port.Module(level)
	if err != nil {
		return nil, err
	}
	n := max(s.VCPUs, 1)
	m := &Machine{}
	switch {
	case s.Engine == "interp" && n == 1:
		im := interp.New(s.Port, module, s.GuestRAMBytes)
		m.harts = []Hart{interpHart{im}}
		m.run = func(steps, _ uint64) error { _, err := im.Run(steps); return err }
	case s.Engine == "interp":
		cl := interp.NewCluster(s.Port, module, s.GuestRAMBytes, n)
		for _, im := range cl.Machines {
			m.harts = append(m.harts, interpHart{im})
		}
		m.run = func(steps, _ uint64) error { return cl.RunDet(uint64(n)*steps, quantum) }
	default:
		if err := m.buildDBT(s, module, n); err != nil {
			return nil, err
		}
	}
	if s.Trace != nil {
		m.harts[0].SetTrace(s.Trace)
	}
	return m, nil
}

// buildDBT builds a Captive or QEMU-baseline machine of n vCPUs.
func (m *Machine) buildDBT(s Spec, module *gen.Module, n int) error {
	vm, err := hvm.New(s.Config)
	if err != nil {
		return err
	}
	var engines []*core.Engine
	if n == 1 && !s.Parallel {
		var e *core.Engine
		if s.Engine == "qemu" {
			e, err = core.NewQEMU(vm, s.Port, module)
		} else {
			e, err = core.New(vm, s.Port, module)
		}
		if err != nil {
			return err
		}
		engines, m.run = []*core.Engine{e}, func(_, deci uint64) error { return e.Run(deci) }
	} else {
		var smp *core.SMP
		if s.Engine == "qemu" {
			smp, err = core.NewSMPQEMU(vm, s.Port, module)
		} else {
			smp, err = core.NewSMP(vm, s.Port, module)
		}
		if err != nil {
			return err
		}
		for i := 0; i < smp.N(); i++ {
			engines = append(engines, smp.VCPU(i))
		}
		m.run = func(_, deci uint64) error { return smp.RunDet(deci, quantum) }
		if s.Parallel {
			m.run = func(_, deci uint64) error { return smp.RunParallel(deci) }
		}
	}
	for _, e := range engines {
		if s.SoftFP {
			e.SoftFP = true
		}
		if s.NoChain {
			e.ChainingOff = true
		}
		m.harts = append(m.harts, e)
	}
	return nil
}

// Harts returns the vCPU count.
func (m *Machine) Harts() int { return len(m.harts) }

// Hart returns vCPU i.
func (m *Machine) Hart(i int) Hart { return m.harts[i] }

// Load copies an image into guest RAM and points every vCPU at entry.
func (m *Machine) Load(image []byte, pa, entry uint64) error {
	if err := m.harts[0].LoadImage(image, pa, entry); err != nil {
		return err
	}
	for _, h := range m.harts[1:] {
		h.SetPC(entry)
	}
	return nil
}

// LoadData copies bytes into guest RAM without moving any PC (exception
// vectors, user programs of a mini-OS image).
func (m *Machine) LoadData(data []byte, pa uint64) error { return m.harts[0].LoadUser(data, pa) }

// Run executes until every vCPU halts. The interpreter is bounded by steps
// per vCPU (steps, not instructions, so fault loops terminate); the DBT
// engines by deciCycles of simulated host time per vCPU, past which they
// return core.ErrBudget.
func (m *Machine) Run(steps, deciCycles uint64) error { return m.run(steps, deciCycles) }

// Halted reports whether every vCPU has halted.
func (m *Machine) Halted() bool {
	for _, h := range m.harts {
		if halted, _ := h.Halted(); !halted {
			return false
		}
	}
	return true
}

// ReadRAM copies len(dst) bytes of guest RAM starting at pa.
func (m *Machine) ReadRAM(pa uint64, dst []byte) error { return m.harts[0].ReadRAM(pa, dst) }

// Profile returns vCPU 0's hot-block profile, hottest first; only the DBT
// engines collect one (nil for the interpreter).
func (m *Machine) Profile() []core.BlockProfile {
	if e, ok := m.harts[0].(*core.Engine); ok {
		return e.ProfileSnapshot()
	}
	return nil
}

// Console returns everything the guest wrote to its UART.
func (m *Machine) Console() string { return m.harts[0].Console() }
