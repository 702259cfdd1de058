package core_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"captive/internal/core"
	"captive/internal/guest/ga64"
	"captive/internal/guest/ga64/asm"
	"captive/internal/hvm"
	"captive/internal/trace"
)

func newQemuEngine(t *testing.T) *core.Engine {
	t.Helper()
	vm, err := hvm.New(hvm.Config{GuestRAMBytes: 8 << 20, CodeCacheBytes: 4 << 20, PTPoolBytes: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewQEMU(vm, ga64.Port{}, ga64.MustModule())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestQemuArithmeticAndMemory(t *testing.T) {
	e := newQemuEngine(t)
	p := asm.New(0x1000)
	p.MovI(0, 0x200000)
	p.MovI(1, 0xCAFEBABE12345678)
	p.Str(1, 0, 0)
	p.Ldr(2, 0, 0)
	p.Ldrb(3, 0, 7)
	p.MovI(4, 100)
	p.MovI(5, 42)
	p.Mul(6, 4, 5)
	p.Hlt(0)
	runCaptive(t, e, p)
	if e.Reg(2) != 0xCAFEBABE12345678 || e.Reg(3) != 0xCA || e.Reg(6) != 4200 {
		t.Errorf("results: %#x %#x %d", e.Reg(2), e.Reg(3), e.Reg(6))
	}
	// Softmmu path: no host page faults expected (the addend points at the
	// direct map).
	if e.Stats.HostFaults != 0 {
		t.Errorf("qemu baseline should not host-fault, got %d", e.Stats.HostFaults)
	}
}

func TestQemuSoftFloat(t *testing.T) {
	e := newQemuEngine(t)
	p := asm.New(0x1000)
	p.MovF(0, 0, 1.5)
	p.MovF(1, 1, 2.5)
	p.Fmul(2, 0, 1)
	p.MovF(3, 3, -0.5)
	p.Fsqrt(4, 3) // ARM default NaN via the softfloat helper
	p.Hlt(0)
	runCaptive(t, e, p)
	if e.FReg(2) != math.Float64bits(3.75) {
		t.Errorf("fmul = %#x", e.FReg(2))
	}
	if e.FReg(4) != 0x7FF8000000000000 {
		t.Errorf("fsqrt(-0.5) = %#016x", e.FReg(4))
	}
}

func TestQemuExceptionsAndMMU(t *testing.T) {
	e := newQemuEngine(t)
	p := asm.New(0x1000)
	p.MovI(0, 0x8000)
	p.Msr(ga64.SysVBAR, 0)
	emitEnableMMU(p)
	p.Adr(0, "user")
	p.Msr(ga64.SysELR, 0)
	p.MovI(0, 0)
	p.Msr(ga64.SysSPSR, 0)
	p.Eret()
	p.Label("user")
	p.MovI(3, 0x1234)
	p.Svc(7)
	p.Hlt(9)
	handler := asm.New(0x8100)
	handler.Mrs(4, ga64.SysCURRENTEL)
	handler.Hlt(6)
	himg, _ := handler.Assemble()
	if err := e.LoadUser(himg, 0x8100); err != nil {
		t.Fatal(err)
	}
	runCaptive(t, e, p)
	if _, code := e.Halted(); code != 6 {
		t.Fatalf("exit = %d, want 6", code)
	}
	if e.Reg(3) != 0x1234 || e.Reg(4) != 1 {
		t.Errorf("X3=%#x X4=%d", e.Reg(3), e.Reg(4))
	}
	// The baseline flushed its translation cache when the MMU came on.
	if e.JIT.CacheFlushes == 0 {
		t.Error("VA-indexed cache must flush on translation changes")
	}
}

func TestQemuUART(t *testing.T) {
	e := newQemuEngine(t)
	p := asm.New(0x1000)
	p.MovI(0, ga64.UARTBase)
	for _, ch := range "tcg" {
		p.MovI(1, uint64(ch))
		p.Str32(1, 0, 0)
	}
	p.Hlt(0)
	runCaptive(t, e, p)
	if e.Console() != "tcg" {
		t.Errorf("console = %q", e.Console())
	}
}

func TestQemuSMC(t *testing.T) {
	e := newQemuEngine(t)
	p := asm.New(0x1000)
	p.MovI(asm.SP, 0x100000)
	p.BL("f")
	p.Mov(5, 0)
	p.Adr(1, "patchme")
	p.MovI(2, uint64(ga64.EncMOVW(ga64.OpMovz, 0, 0, 2)))
	p.Str32(2, 1, 0)
	p.BL("f")
	p.Mov(6, 0)
	p.Hlt(0)
	p.Label("f")
	p.Label("patchme")
	p.Movz(0, 1, 0)
	p.Ret()
	runCaptive(t, e, p)
	if e.Reg(5) != 1 || e.Reg(6) != 2 {
		t.Errorf("SMC: first=%d second=%d", e.Reg(5), e.Reg(6))
	}
	if e.Stats.SMCInvals == 0 {
		t.Error("expected dirty-page invalidation")
	}
}

// TestQemuVsCaptiveDifferential runs random programs under both engines and
// demands identical architectural outcomes.
func TestQemuVsCaptiveDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	for trial := 0; trial < 20; trial++ {
		p := asm.New(0x1000)
		for r := uint32(2); r < 29; r++ {
			p.MovI(r, rng.Uint64()>>(rng.Intn(5)*13))
		}
		p.MovI(0, 0x200000)
		p.MovI(asm.SP, 0x300000)
		n := 30 + rng.Intn(50)
		for i := 0; i < n; i++ {
			rd := 2 + uint32(rng.Intn(27))
			rn := 2 + uint32(rng.Intn(27))
			rm := 2 + uint32(rng.Intn(27))
			switch rng.Intn(12) {
			case 0:
				p.Add(rd, rn, rm)
			case 1:
				p.Subs(rd, rn, rm)
			case 2:
				p.Mul(rd, rn, rm)
			case 3:
				p.SDiv(rd, rn, rm)
			case 4:
				p.Str(rn, 0, int32(rng.Intn(64))*8)
			case 5:
				p.Ldr(rd, 0, int32(rng.Intn(64))*8)
			case 6:
				p.Csinc(rd, rn, rm, uint32(rng.Intn(15)))
			case 7:
				p.Eor(rd, rn, rm)
			case 8:
				p.Lsrv(rd, rn, rm)
			case 9:
				p.Madd(rd, rn, rm, 2+uint32(rng.Intn(27)))
			case 10:
				p.Ldrsw(rd, 0, int32(rng.Intn(128)))
			case 11:
				p.Movn(rd, uint16(rng.Uint32()), uint32(rng.Intn(4)))
			}
		}
		p.Hlt(0)
		img, err := p.Assemble()
		if err != nil {
			t.Fatal(err)
		}

		ec := newEngine(t)
		if err := ec.LoadImage(img, 0x1000, 0x1000); err != nil {
			t.Fatal(err)
		}
		if err := ec.Run(1_000_000_000); err != nil {
			t.Fatalf("trial %d captive: %v", trial, err)
		}
		eq := newQemuEngine(t)
		if err := eq.LoadImage(img, 0x1000, 0x1000); err != nil {
			t.Fatal(err)
		}
		if err := eq.Run(1_000_000_000); err != nil {
			t.Fatalf("trial %d qemu: %v", trial, err)
		}
		for r := 0; r < 32; r++ {
			if ec.Reg(r) != eq.Reg(r) {
				t.Fatalf("trial %d: X%d: captive=%#x qemu=%#x", trial, r, ec.Reg(r), eq.Reg(r))
			}
		}
		if ec.NZCV() != eq.NZCV() {
			t.Fatalf("trial %d: NZCV differs", trial)
		}
	}
}

// flushSnapshot is a trace sink that also copies the head of the code
// region at every TLB-flush event, i.e. just before the baseline drops its
// translations.
type flushSnapshot struct {
	trace.Capture
	code []byte // the code region
	head []byte // its first bytes at the last flush
}

func (s *flushSnapshot) Emit(ev trace.Event) {
	if ev.Kind == trace.TLBFlush {
		s.head = append(s.head[:0], s.code[:64]...)
	}
	s.Capture.Emit(ev)
}

// TestQemuFlushReusesCodeRegion pins code-cache coherence across a
// whole-cache flush. The baseline flushes everything on a TLB flush and
// restarts its bump allocator, so the code translated next overwrites the
// code-region bytes the old blocks used. The new code must run (no stale
// superblock survives the flush), its dispatcher exits must resolve to the
// new blocks (the post-flush loop gets chained), and no exit may resolve to
// a block the flush dropped: every chain patch must come from a block
// translated since the most recent flush.
func TestQemuFlushReusesCodeRegion(t *testing.T) {
	vm, err := hvm.New(hvm.Config{GuestRAMBytes: 8 << 20, CodeCacheBytes: 4 << 20, PTPoolBytes: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewQEMU(vm, ga64.Port{}, ga64.MustModule())
	if err != nil {
		t.Fatal(err)
	}
	sink := &flushSnapshot{code: vm.Mem.Bytes(vm.Layout.CodePA, vm.Layout.CodeSize)}
	e.SetTrace(trace.NewRecorder(sink, trace.KindMask(trace.Translate, trace.TLBFlush, trace.ChainPatch)))
	p := asm.New(0x1000)
	p.MovI(0, 0)
	p.MovI(2, 40)
	p.Label("a")
	p.AddI(0, 0, 1)
	p.SubsI(2, 2, 1)
	p.BCond(ga64.CondNE, "a")
	p.Tlbi() // the baseline drops every translation here
	p.MovI(1, 0)
	p.MovI(3, 0)
	p.MovI(2, 40)
	p.Label("b")
	p.AddI(1, 1, 3)
	p.Eor(3, 3, 1)
	p.SubsI(2, 2, 1)
	p.BCond(ga64.CondNE, "b")
	p.Hlt(0)
	runCaptive(t, e, p)

	var x1, x3 uint64
	for i := 0; i < 40; i++ {
		x1 += 3
		x3 ^= x1
	}
	if e.Reg(0) != 40 || e.Reg(1) != x1 || e.Reg(3) != x3 {
		t.Errorf("x0=%d x1=%d x3=%#x, want 40 %d %#x", e.Reg(0), e.Reg(1), e.Reg(3), x1, x3)
	}
	if e.JIT.CacheFlushes != 1 {
		t.Fatalf("cache flushes = %d, want 1", e.JIT.CacheFlushes)
	}
	if bytes.Equal(sink.head, sink.code[:64]) {
		t.Fatal("post-flush translations did not reuse the code region's first bytes")
	}

	live := map[uint64]bool{} // guest PCs translated since the last flush
	flushed, chainsAfter := false, 0
	for _, ev := range sink.Events {
		switch ev.Kind {
		case trace.TLBFlush:
			flushed = true
			clear(live)
		case trace.Translate:
			live[ev.PC] = true
		case trace.ChainPatch:
			if !live[ev.Addr] {
				t.Errorf("exit of block %#x resolved after the flush dropped it", ev.Addr)
			}
			if flushed {
				chainsAfter++
			}
		}
	}
	if chainsAfter == 0 {
		t.Error("no exit of a post-flush block was resolved and chained")
	}
}
