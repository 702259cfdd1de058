package hvm

import (
	"runtime"
	"testing"

	"captive/internal/guest/ga64"
	"captive/internal/vx64"
)

func TestLayout(t *testing.T) {
	vm, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	l := vm.Layout
	if l.GuestRAMSize != 64<<20 {
		t.Errorf("ram = %d", l.GuestRAMSize)
	}
	// The Captive area starts above the MMIO window.
	if l.CaptiveBase < uint64(ga64.DeviceBase)+uint64(ga64.DeviceSize) {
		t.Errorf("captive area overlaps devices: %#x", l.CaptiveBase)
	}
	// Regions are ordered and within physical memory.
	if !(l.StatePA < l.RegFilePA && l.RegFilePA < l.StackTopPA &&
		l.StackTopPA <= l.PTPoolPA && l.PTPoolPA < l.CodePA &&
		l.CodePA+l.CodeSize == l.TotalPhys) {
		t.Errorf("layout out of order: %+v", l)
	}
	if vm.CPU.DirectBase != DirectBase || !vm.CPU.EPTEnabled {
		t.Error("CPU not configured for the hypervisor environment")
	}
}

// TestLayoutBacking pins the sparse backing: guest DRAM and the Captive
// area are backed, back to back, and every region the layout hands out —
// for every vCPU — round-trips through the physical mapping, both from the
// hypervisor side and through a VX64 direct-map access; the hole between
// guest RAM and the Captive area raises #BUS like an address past TotalPhys.
func TestLayoutBacking(t *testing.T) {
	multi := DefaultConfig()
	multi.VCPUs = 4
	for _, cfg := range []Config{DefaultConfig(), multi} {
		vm, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		l := vm.Layout
		if want := l.GuestRAMSize + l.TotalPhys - l.CaptiveBase; uint64(len(vm.Phys)) != want {
			t.Errorf("%d vCPUs: %d bytes backed, want guest RAM + Captive area = %d", l.VCPUs, len(vm.Phys), want)
		}
		type region struct {
			name       string
			base, size uint64
		}
		regions := []region{
			{"guest RAM", 0, l.GuestRAMSize},
			{"code cache", l.CodePA, l.CodeSize},
		}
		for i := 0; i < l.VCPUs; i++ {
			pool, poolSize := l.PTPoolOf(i)
			regions = append(regions,
				region{"state", l.StatePAOf(i), vx64.PageSize},
				region{"register file", l.RegFilePAOf(i), vx64.PageSize},
				region{"stack", l.StackTopOf(i) - 0x10000, 0x10000},
				region{"softmmu TLB", l.SoftTLBOf(i), 0x40000},
				region{"PT pool", pool, poolSize})
		}
		for k, r := range regions {
			for _, pa := range []uint64{r.base, r.base + r.size - 8} {
				tag := uint64(k)<<32 | pa
				vm.Mem.W64(pa, tag)
				if got := vm.Mem.R64(pa); got != tag {
					t.Errorf("%d vCPUs: %s at %#x reads back %#x, want %#x", l.VCPUs, r.name, pa, got, tag)
				}
				if got, trap := directAccess(vm, pa, false, 0); trap.Kind != vx64.TrapHlt || got != tag {
					t.Errorf("%d vCPUs: direct-map read of %s at %#x = %#x (%v), want %#x", l.VCPUs, r.name, pa, got, trap, tag)
				}
				if _, trap := directAccess(vm, pa, true, ^tag); trap.Kind != vx64.TrapHlt || vm.Mem.R64(pa) != ^tag {
					t.Errorf("%d vCPUs: direct-map write of %s at %#x did not land (%v)", l.VCPUs, r.name, pa, trap)
				}
			}
		}
		for _, pa := range []uint64{l.GuestRAMSize, uint64(ga64.DeviceBase), l.CaptiveBase - 8, l.TotalPhys} {
			for _, write := range []bool{false, true} {
				if _, trap := directAccess(vm, pa, write, 1); trap.Kind != vx64.TrapBusError || trap.Addr != DirectVA(pa) {
					t.Errorf("%d vCPUs: direct-map access (write=%v) at unbacked %#x: %v, want #BUS", l.VCPUs, write, pa, trap)
				}
			}
		}
	}
}

// directAccess runs a one-access VX64 program from the middle of the code
// region (clear of the probed region edges) on vCPU 0: a 64-bit load from, or store of v to, the direct-map address of pa.
// It returns the loaded value and the trap that ended the run.
func directAccess(vm *VM, pa uint64, write bool, v uint64) (uint64, vx64.Trap) {
	m := vx64.Mem{Base: vx64.R1, Index: vx64.NoReg, Scale: 1}
	prog := []vx64.Inst{
		{Op: vx64.MOVI64, Rd: uint16(vx64.R1), Imm: int64(DirectVA(pa))},
		{Op: vx64.MOVI64, Rd: uint16(vx64.R2), Imm: int64(v)},
		{Op: vx64.LOAD64, Rd: uint16(vx64.R3), M: m},
		{Op: vx64.HLT},
	}
	if write {
		prog[2] = vx64.Inst{Op: vx64.STORE64, Rs: uint16(vx64.R2), M: m}
	}
	var code []byte
	for i := range prog {
		code = vx64.Encode(code, &prog[i])
	}
	at := vm.Layout.CodePA + vm.Layout.CodeSize/2
	copy(vm.Mem.Bytes(at, uint64(len(code))), code)
	cpu := vm.CPU
	cpu.InvalidateCode(at, uint64(len(code)))
	cpu.RIP = DirectVA(at)
	trap := cpu.Run(1 << 20)
	return cpu.R[vx64.R3], trap
}

// TestConstructionMemoryProportionalToLayout pins that building a machine
// allocates what its layout backs — guest RAM, the page-table pool, the
// code cache and one Captive slice per vCPU — plus under 1 MiB of CPU
// state, and nothing for the hole below the device window.
func TestConstructionMemoryProportionalToLayout(t *testing.T) {
	difftest := Config{GuestRAMBytes: 8 << 20, CodeCacheBytes: 4 << 20, PTPoolBytes: 2 << 20}
	for _, base := range []Config{difftest, DefaultConfig()} {
		for _, n := range []int{1, 2, 4} {
			cfg := base
			cfg.VCPUs = n
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			vm, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			runtime.KeepAlive(vm)
			got := m1.TotalAlloc - m0.TotalAlloc
			limit := uint64(cfg.GuestRAMBytes+cfg.PTPoolBytes+cfg.CodeCacheBytes+n*cpuStride) + 1<<20
			t.Logf("%d MiB RAM, %d vCPUs: %.2f MiB allocated, limit %.2f MiB",
				cfg.GuestRAMBytes>>20, n, float64(got)/(1<<20), float64(limit)/(1<<20))
			if got >= limit {
				t.Errorf("%d MiB RAM, %d vCPUs: hvm.New allocates %.1f MiB, want < %.1f MiB",
					cfg.GuestRAMBytes>>20, n, float64(got)/(1<<20), float64(limit)/(1<<20))
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{GuestRAMBytes: 0, CodeCacheBytes: 1 << 20, PTPoolBytes: 1 << 20}); err == nil {
		t.Error("zero RAM must be rejected")
	}
	if _, err := New(Config{GuestRAMBytes: 512 << 20, CodeCacheBytes: 1 << 20, PTPoolBytes: 1 << 20}); err == nil {
		t.Error("RAM over the MMIO window must be rejected")
	}
	if _, err := New(Config{GuestRAMBytes: 1 << 20, CodeCacheBytes: 0, PTPoolBytes: 1 << 20}); err == nil {
		t.Error("tiny code cache must be rejected")
	}
}

func TestGuestImageAndPhysRead(t *testing.T) {
	vm, err := New(Config{GuestRAMBytes: 4 << 20, CodeCacheBytes: 1 << 20, PTPoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.LoadGuestImage([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 0x1000); err != nil {
		t.Fatal(err)
	}
	v, ok := vm.GuestPhysRead64(0x1000)
	if !ok || v != 0x0807060504030201 {
		t.Errorf("read = %#x ok=%v", v, ok)
	}
	if _, ok := vm.GuestPhysRead64(5 << 20); ok {
		t.Error("read beyond guest RAM must fail")
	}
	if err := vm.LoadGuestImage(make([]byte, 1), 4<<20); err == nil {
		t.Error("image beyond RAM must be rejected")
	}
}

func TestMMIODispatch(t *testing.T) {
	vm, err := New(Config{GuestRAMBytes: 4 << 20, CodeCacheBytes: 1 << 20, PTPoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	vm.MMIO(uint64(ga64.UARTBase), true, 4, 'z')
	if vm.Bus.Console() != "z" {
		t.Errorf("console = %q", vm.Bus.Console())
	}
	if vm.MMIO(uint64(ga64.UARTBase)+0x04, false, 4, 0) != 1 {
		t.Error("status read wrong")
	}
}

func TestDirectVA(t *testing.T) {
	if DirectVA(0x1234) != DirectBase+0x1234 {
		t.Error("direct map arithmetic wrong")
	}
	if DirectBase&LowHalfMask != 0 {
		t.Error("direct base must be outside the low half")
	}
}
