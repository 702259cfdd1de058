package interp

import (
	"captive/internal/device"
	"captive/internal/gen"
	"captive/internal/guest/port"
	"captive/internal/smp"
	"captive/internal/trace"
)

// Cluster is N interpreted harts sharing one guest physical memory and one
// device bus — the golden model of an SMP guest machine. Harts run under the
// deterministic round-robin scheduler (internal/smp) in fixed
// retired-instruction quanta over one shared virtual clock, producing the
// exact interleaving the DBT engines produce under the same scheduler; that
// is what lets the SMP difftest lane compare multi-vCPU runs bit-for-bit.
//
// Only hart 0's Bus is live (every member's accesses route to it); the
// other machines' Bus fields are unused. Per-hart system state (CSRs,
// privilege mode) stays private to each Machine.
type Cluster struct {
	Machines []*Machine

	bus     *device.Bus
	idleOff uint64

	// steps/stepLimit is the shared step budget of the current RunDet call
	// (steps, not retired instructions, so fault loops terminate).
	steps, stepLimit uint64
}

// NewCluster creates an n-hart cluster for the guest architecture described
// by g. All harts share hart 0's memory and device bus; each has its own
// register file and system state. n=1 degenerates to a single machine on
// the deterministic scheduler.
func NewCluster(g port.Port, module *gen.Module, ramBytes, n int) *Cluster {
	cl := &Cluster{}
	for i := 0; i < n; i++ {
		m := New(g, module, ramBytes)
		m.cl = cl
		m.hartID = i
		m.hooks.HartID = i
		if i > 0 {
			m.Mem = cl.Machines[0].Mem
			m.bus = cl.Machines[0].bus
		}
		cl.Machines = append(cl.Machines, m)
	}
	cl.bus = cl.Machines[0].bus
	return cl
}

// virtualTime is the cluster's shared virtual clock: total retired
// instructions across all harts plus skipped idle time (the SMP
// generalization of the uniprocessor Instrs+idleOff split).
func (cl *Cluster) virtualTime() uint64 {
	vt := cl.idleOff
	for _, m := range cl.Machines {
		vt += m.Instrs
	}
	return vt
}

// RunDet drives the cluster to completion under the deterministic
// round-robin scheduler with the given instruction quantum. limit bounds
// total interpreter steps across all harts, like Machine.Run's step limit.
func (cl *Cluster) RunDet(limit, quantum uint64) error {
	cl.steps, cl.stepLimit = 0, limit
	harts := make([]smp.Hart, len(cl.Machines))
	for i, m := range cl.Machines {
		harts[i] = clHart{m}
	}
	return smp.RunRR(harts, clClock{cl}, quantum)
}

// clHart adapts a cluster member to the scheduler's hart view.
type clHart struct{ m *Machine }

func (h clHart) Halted() bool  { return h.m.Halted }
func (h clHart) Waiting() bool { return h.m.Waiting }
func (h clHart) WakeableNow() bool {
	return h.m.sys.WFIWake(h.m.timerLine(), &h.m.hooks)
}
func (h clHart) TimerWakeable() bool {
	return h.m.hartID == 0 && h.m.sys.WFIWake(true, &h.m.hooks)
}
func (h clHart) ClearWait()                    { h.m.Waiting = false }
func (h clHart) HaltIdle()                     { h.m.Halted = true; h.m.ExitCode = 0 }
func (h clHart) RunSlice(quantum uint64) error { return h.m.RunSlice(quantum) }

// clClock adapts the cluster's virtual clock to the scheduler. Skip stamps
// one WFIIdle event per hart at the pre-skip time, exactly like the SMP
// engines, keeping the comparable trace streams aligned.
type clClock struct{ cl *Cluster }

func (c clClock) VirtualTime() uint64 { return c.cl.virtualTime() }
func (c clClock) TimerDeadline() (cmp uint64, armed bool) {
	return c.cl.bus.TimerState()
}
func (c clClock) Skip(delta uint64) {
	for _, m := range c.cl.Machines {
		m.rec.Emit(trace.WFIIdle, 0, m.virtualTime(), m.PC(), delta)
	}
	c.cl.idleOff += delta
}
