package captive_test

import (
	"fmt"
	"testing"

	"captive"
	"captive/ga64asm"
)

// quickstart assembles the quickstart guest: a UART banner, x0 = 21*2 and
// x2 = gcd(1071, 462), then hlt.
func quickstart(t *testing.T) []byte {
	t.Helper()
	p := ga64asm.New(0x1000)
	p.MovI(10, ga64asm.UARTBase)
	for _, ch := range "quickstart guest\n" {
		p.MovI(11, uint64(ch))
		p.Str32(11, 10, 0)
	}
	p.MovI(0, 21)
	p.MovI(1, 2)
	p.Mul(0, 0, 1)
	p.MovI(2, 1071)
	p.MovI(3, 462)
	p.Label("gcd")
	p.Cbz(3, "done")
	p.UDiv(4, 2, 3)
	p.Msub(4, 4, 3, 2)
	p.Mov(2, 3)
	p.Mov(3, 4)
	p.B("gcd")
	p.Label("done")
	p.Hlt(0)
	img, err := p.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestGuestEnginesAgree runs the quickstart guest through the public API on
// every engine, at every offline level and with the soft-float and
// unchained variants: the result, the console and the instruction count
// must be identical everywhere, and the DBT engines must report their run.
func TestGuestEnginesAgree(t *testing.T) {
	img := quickstart(t)
	var cfgs []captive.Config
	for _, e := range []captive.EngineKind{captive.EngineInterp, captive.EngineCaptive, captive.EngineQEMU} {
		for level := 1; level <= 4; level++ {
			cfgs = append(cfgs, captive.Config{Engine: e, OptLevel: level})
		}
		cfgs = append(cfgs, captive.Config{Engine: e, SoftFloat: true}, captive.Config{Engine: e, DisableChain: true})
	}
	var want uint64
	for _, cfg := range cfgs {
		name := fmt.Sprintf("%+v", cfg)
		g, err := captive.New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := g.LoadImage(img, 0x1000, 0x1000); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st, err := g.Run(0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		stats := g.Stats()
		if !st.Halted || st.ExitCode != 0 || g.Reg(0) != 42 || g.Reg(2) != 21 || g.Console() != "quickstart guest\n" {
			t.Errorf("%s: halted=%v exit=%d x0=%d x2=%d console=%q", name, st.Halted, st.ExitCode, g.Reg(0), g.Reg(2), g.Console())
		}
		if want == 0 {
			want = stats.GuestInstructions
		}
		if stats.GuestInstructions != want || want == 0 {
			t.Errorf("%s: %d guest instructions, want %d", name, stats.GuestInstructions, want)
		}
		dbt := cfg.Engine != captive.EngineInterp
		if dbt && (stats.HostCycles == 0 || stats.SimSeconds == 0 || stats.MIPS == 0 || stats.BlocksTranslated == 0 || stats.CodeBytes == 0) {
			t.Errorf("%s: DBT stats not reported: %+v", name, stats)
		}
	}
}

// TestGuestLoadDataPastRAM pins the fail-closed bounds check of the public
// loaders on every engine: data ending past guest RAM, or whose end wraps
// past 2^64, is an error, never a panic.
func TestGuestLoadDataPastRAM(t *testing.T) {
	for _, e := range []captive.EngineKind{captive.EngineInterp, captive.EngineCaptive, captive.EngineQEMU} {
		g, err := captive.New(captive.Config{Engine: e, GuestRAMBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 16)
		for _, pa := range []uint64{1<<20 - 8, ^uint64(0) - 7} {
			if err := g.LoadData(data, pa); err == nil {
				t.Errorf("engine %d: LoadData at %#x succeeded", e, pa)
			}
			if err := g.LoadImage(data, pa, 0x1000); err == nil {
				t.Errorf("engine %d: LoadImage at %#x succeeded", e, pa)
			}
		}
		if err := g.LoadData(data, 1<<20-16); err != nil {
			t.Errorf("engine %d: LoadData flush with the end of RAM: %v", e, err)
		}
	}
}
