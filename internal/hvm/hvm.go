// Package hvm is the hypervisor substrate playing the role KVM plays in the
// paper (§2.3, Fig. 2): it owns the host virtual machine — simulated host
// physical memory, a VX64 CPU with SLAT enabled, and the guest device
// emulations — and hands the Captive engine a bare-metal environment in
// which it is free to build host page tables and run code in any protection
// ring.
//
// Physical memory layout (Fig. 15, concretized):
//
//	[0, GuestRAMSize)            emulated guest DRAM (GPA == HPA identity)
//	[GuestRAMSize, CaptiveBase)  the hole — never backed
//	[ga64.DeviceBase, +1 MiB)    guest MMIO window at the top of the hole;
//	                             guest accesses fault and are emulated by
//	                             the hypervisor
//	[CaptiveBase, TotalPhys)     the Captive area: per-vCPU engine state
//	                             page, guest register file, stack and
//	                             softmmu TLB, host page-table pool, code
//	                             cache
//
// Like a KVM guest whose memory slots cover only what is populated, only
// guest DRAM and the Captive area are backed: VM.Phys holds the two back to
// back, so building a machine costs its RAM plus its Captive area, not the
// 256 MiB below the device window. Physical addresses are unchanged — page
// tables, direct-map addresses and TLB tags never see the backing — and the
// one rule from address to backing offset is vx64.PhysMap.Off. A VX64
// access into the hole raises the same #BUS as one past TotalPhys.
//
// The host virtual address space is split per §2.7.3: the low half holds
// guest virtual addresses (mapped on demand from guest page tables); the
// high half is the hypervisor direct map at DirectBase through which the
// unikernel reaches its own structures.
package hvm

import (
	"fmt"

	"captive/internal/device"
	"captive/internal/guest/ga64"
	"captive/internal/vx64"
)

// DirectBase is the base of the high-half direct map (-2^47).
const DirectBase = 0xFFFF_8000_0000_0000

// LowHalfMask masks a host virtual address into the guest (low) half.
const LowHalfMask = 0x0000_7FFF_FFFF_FFFF

// Config sizes the host virtual machine.
type Config struct {
	GuestRAMBytes  int // guest DRAM size (max 256 MiB, below the MMIO window)
	CodeCacheBytes int // translated-code cache
	PTPoolBytes    int // host page-table pool
	VCPUs          int // guest vCPU count; 0 means 1 (uniprocessor)
}

// DefaultConfig returns the configuration used by the benchmarks: 64 MiB of
// guest RAM, a 16 MiB code cache and a 4 MiB page-table pool.
func DefaultConfig() Config {
	return Config{
		GuestRAMBytes:  64 << 20,
		CodeCacheBytes: 16 << 20,
		PTPoolBytes:    4 << 20,
	}
}

// Layout is the resolved physical memory map.
type Layout struct {
	GuestRAMSize uint64
	CaptiveBase  uint64
	VCPUs        int
	StatePA      uint64 // one page of engine state (vCPU 0)
	RegFilePA    uint64 // guest register file (vCPU 0)
	StackTopPA   uint64 // top of the unikernel stack (vCPU 0, grows down)
	PTPoolPA     uint64
	PTPoolSize   uint64
	CodePA       uint64
	CodeSize     uint64
	TotalPhys    uint64
}

// cpuStride is the per-vCPU slice of the Captive area: state page, register
// file, stack and (QEMU baseline) softmmu TLB, one slice per vCPU. With one
// vCPU the layout collapses to the historical uniprocessor map, so every
// physical address — and therefore the bit-exact cycle model — is unchanged
// for existing single-core images.
const cpuStride = 0x140000

// StatePAOf returns the state page of vCPU i.
func (l *Layout) StatePAOf(i int) uint64 { return l.CaptiveBase + uint64(i)*cpuStride }

// RegFilePAOf returns the guest register file of vCPU i.
func (l *Layout) RegFilePAOf(i int) uint64 { return l.StatePAOf(i) + 0x1000 }

// StackTopOf returns the unikernel stack top of vCPU i.
func (l *Layout) StackTopOf(i int) uint64 { return l.StatePAOf(i) + 0x20000 }

// SoftTLBOf returns the QEMU-baseline softmmu TLB base of vCPU i. For a
// single vCPU this coincides with the page-table pool base (the baseline
// never walks host page tables), matching the historical layout byte for
// byte.
func (l *Layout) SoftTLBOf(i int) uint64 { return l.StatePAOf(i) + 0x100000 }

// PTPoolOf returns the host page-table pool slice of vCPU i: each vCPU
// builds its own host page tables (its own CR3 roots) in a disjoint,
// page-aligned slice of the pool.
func (l *Layout) PTPoolOf(i int) (base, size uint64) {
	per := l.PTPoolSize / uint64(l.VCPUs) &^ 0xFFF
	return l.PTPoolPA + uint64(i)*per, per
}

// State-page slot offsets (from StatePA / R13). The generated code and the
// helpers communicate through these.
const (
	StateModeMask = 0x00 // current address-space half as a sign mask (0 or ~0)
	StateICount   = 0x08 // retired guest instruction counter
	StateArg0     = 0x40 // helper argument/result slots
	StateArg1     = 0x48
	StateArg2     = 0x50
	StateRet      = 0x58
	StateTmp0     = 0x60 // scratch spill slots for fix-up sequences
	StateTmp1     = 0x68
	StateIRQDl    = 0x70 // virtual-time deadline for the block-entry IRQ check
)

// VM is the host virtual machine.
type VM struct {
	// Mem is host physical memory, addressed by physical address. Phys is
	// its backing (Mem.Back): guest DRAM followed by the Captive area,
	// len(Phys) bytes in all; index it through Mem, never by address.
	Mem    vx64.PhysMap
	Phys   vx64.PhysMem
	CPU    *vx64.CPU   // host CPU of vCPU 0 (uniprocessor shorthand)
	CPUs   []*vx64.CPU // one host CPU per guest vCPU
	Bus    *device.Bus
	Layout Layout
}

// New creates a host VM.
func New(cfg Config) (*VM, error) {
	if cfg.GuestRAMBytes <= 0 || cfg.GuestRAMBytes > 256<<20 {
		return nil, fmt.Errorf("hvm: guest RAM must be in (0, 256 MiB], got %d", cfg.GuestRAMBytes)
	}
	if cfg.CodeCacheBytes < 1<<20 || cfg.PTPoolBytes < 1<<20 {
		return nil, fmt.Errorf("hvm: code cache and PT pool must be at least 1 MiB")
	}
	n := cfg.VCPUs
	if n <= 0 {
		n = 1
	}
	if n > 8 {
		return nil, fmt.Errorf("hvm: at most 8 vCPUs, got %d", n)
	}
	var l Layout
	l.GuestRAMSize = uint64(cfg.GuestRAMBytes)
	l.CaptiveBase = uint64(ga64.DeviceBase) + uint64(ga64.DeviceSize)
	if l.GuestRAMSize > uint64(ga64.DeviceBase) {
		return nil, fmt.Errorf("hvm: guest RAM overlaps the MMIO window")
	}
	l.VCPUs = n
	l.StatePA = l.StatePAOf(0)
	l.RegFilePA = l.RegFilePAOf(0)
	l.StackTopPA = l.StackTopOf(0) // 64 KiB stack below
	if n == 1 {
		// Historical uniprocessor map: the page-table pool starts right
		// after the single vCPU's state/stack area, with the baseline's
		// softmmu TLB overlaying its (never-walked) root pages.
		l.PTPoolPA = l.CaptiveBase + 0x100000
	} else {
		l.PTPoolPA = l.CaptiveBase + uint64(n)*cpuStride
	}
	l.PTPoolSize = uint64(cfg.PTPoolBytes)
	l.CodePA = l.PTPoolPA + l.PTPoolSize
	l.CodeSize = uint64(cfg.CodeCacheBytes)
	l.TotalPhys = l.CodePA + l.CodeSize

	mem := vx64.PhysMap{
		Back:   make(vx64.PhysMem, l.GuestRAMSize+l.TotalPhys-l.CaptiveBase),
		HoleLo: l.GuestRAMSize,
		HoleHi: l.CaptiveBase,
	}
	cpus := make([]*vx64.CPU, n)
	for i := range cpus {
		cpu := vx64.NewCPU(mem)
		cpu.DirectBase = DirectBase
		cpu.EPTEnabled = true // SLAT: identity GPA->HPA mapping (DESIGN.md §7)
		cpu.SetCodeRegion(l.CodePA, l.CodePA+l.CodeSize)
		cpus[i] = cpu
	}

	vm := &VM{Mem: mem, Phys: mem.Back, CPU: cpus[0], CPUs: cpus, Bus: &device.Bus{}, Layout: l}
	vm.Bus.Cycles = func() uint64 { return cpus[0].Stats.Cycles / 10 }
	return vm, nil
}

// DirectVA converts a host physical address to its direct-map virtual
// address.
func DirectVA(pa uint64) uint64 { return DirectBase + pa }

// GuestPhysRead64 reads guest physical memory (RAM only; device addresses
// return ok=false), for use by guest page-table walkers.
func (vm *VM) GuestPhysRead64(gpa uint64) (uint64, bool) {
	if gpa+8 > vm.Layout.GuestRAMSize {
		return 0, false
	}
	return vm.Mem.R64(gpa), true
}

// LoadGuestImage copies a guest kernel image into guest DRAM.
func (vm *VM) LoadGuestImage(data []byte, gpa uint64) error {
	if gpa+uint64(len(data)) > vm.Layout.GuestRAMSize {
		return fmt.Errorf("hvm: image of %d bytes at %#x exceeds guest RAM", len(data), gpa)
	}
	copy(vm.Mem.Bytes(gpa, uint64(len(data))), data)
	return nil
}

// MMIO dispatches an emulated device access at guest physical address gpa.
func (vm *VM) MMIO(gpa uint64, write bool, size uint8, val uint64) uint64 {
	off := gpa - uint64(ga64.DeviceBase)
	if write {
		vm.Bus.Write(off, size, val)
		return 0
	}
	return vm.Bus.Read(off, size)
}
