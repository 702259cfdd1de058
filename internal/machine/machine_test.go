package machine

import (
	"bytes"
	"fmt"
	"testing"

	"captive/internal/guest/ga64"
	gasm "captive/internal/guest/ga64/asm"
	"captive/internal/guest/port"
	"captive/internal/guest/rv64"
	rvasm "captive/internal/guest/rv64/asm"
	"captive/internal/hvm"
)

const org = 0x1000

// tinyPrograms compute fib(20 + hart ID) on each guest and halt.
func tinyPrograms(t *testing.T) map[string][]byte {
	t.Helper()
	ga := gasm.New(org)
	ga.Mrs(5, ga64.SysMPIDR)
	ga.MovI(0, 0)
	ga.MovI(1, 1)
	ga.AddI(2, 5, 20)
	ga.Label("fib")
	ga.Add(3, 0, 1)
	ga.Mov(0, 1)
	ga.Mov(1, 3)
	ga.SubsI(2, 2, 1)
	ga.BCond(ga64.CondNE, "fib")
	ga.Hlt(0)
	rv := rvasm.New(org)
	rv.Csrr(5, rv64.CSRMhartid)
	rv.Li(10, 0)
	rv.Li(11, 1)
	rv.Addi(12, 5, 20)
	rv.Label("fib")
	rv.Add(13, 10, 11)
	rv.Mv(10, 11)
	rv.Mv(11, 13)
	rv.Addi(12, 12, -1)
	rv.Bne(12, rvasm.X0, "fib")
	rv.Ecall()
	out := map[string][]byte{}
	for name, p := range map[string]interface{ Assemble() ([]byte, error) }{"ga64": ga, "rv64": rv} {
		img, err := p.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		out[name] = img
	}
	return out
}

var ports = map[string]port.Port{"ga64": ga64.Port{}, "rv64": rv64.Port{}}

// small is a difftest-sized host VM.
func small(vcpus int) hvm.Config {
	return hvm.Config{GuestRAMBytes: 1 << 20, CodeCacheBytes: 1 << 20, PTPoolBytes: 1 << 20, VCPUs: vcpus}
}

// hartState is what one hart ended with.
type hartState struct {
	regs   []byte
	instrs uint64
	exit   uint64
}

func runSpec(t *testing.T, s Spec, img []byte) []hartState {
	t.Helper()
	m, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(img, org, org); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(1_000_000, 1_000_000_000); err != nil {
		t.Fatal(err)
	}
	if !m.Halted() || m.Harts() != max(s.VCPUs, 1) {
		t.Fatalf("halted=%v with %d harts", m.Halted(), m.Harts())
	}
	var out []hartState
	for i := 0; i < m.Harts(); i++ {
		h := m.Hart(i)
		halted, code := h.Halted()
		if !halted || h.GuestInstrs() == 0 {
			t.Fatalf("hart %d: halted=%v after %d instructions", i, halted, h.GuestInstrs())
		}
		out = append(out, hartState{h.RegState(), h.GuestInstrs(), code})
	}
	return out
}

// TestEnginesAgree builds the same tiny program on both guests, every
// engine and one or two vCPUs — plus Captive's truly parallel mode — and
// requires the interpreter's registers, instruction counts and exit codes
// on every hart.
func TestEnginesAgree(t *testing.T) {
	for guest, img := range tinyPrograms(t) {
		for _, n := range []int{1, 2} {
			golden := runSpec(t, Spec{Config: small(n), Port: ports[guest], Engine: "interp"}, img)
			if n == 2 && bytes.Equal(golden[0].regs, golden[1].regs) {
				t.Fatalf("%s: both harts ended identical; the hart ID did not reach the program", guest)
			}
			for _, s := range []Spec{
				{Engine: "captive"}, {Engine: "qemu"}, {Engine: "captive", Parallel: true},
				{Engine: "interp", Level: 1}, {Engine: "captive", Level: 2, NoChain: true, SoftFP: true},
			} {
				s.Config, s.Port = small(n), ports[guest]
				name := fmt.Sprintf("%s x%d %+v", guest, n, s)
				for i, st := range runSpec(t, s, img) {
					if !bytes.Equal(st.regs, golden[i].regs) || st.instrs != golden[i].instrs || st.exit != golden[i].exit {
						t.Errorf("%s: hart %d: %d instrs exit %d, interpreter %d instrs exit %d (regs equal: %v)",
							name, i, st.instrs, st.exit, golden[i].instrs, golden[i].exit, bytes.Equal(st.regs, golden[i].regs))
					}
				}
			}
		}
	}
}

// TestInvalidSpec pins one validation rule for every engine: an invalid
// spec is an error from New, never a panic and never engine-dependent.
func TestInvalidSpec(t *testing.T) {
	with := func(f func(*hvm.Config)) hvm.Config {
		c := small(1)
		f(&c)
		return c
	}
	cases := []struct {
		name string
		spec Spec
	}{
		{"negative RAM", Spec{Config: with(func(c *hvm.Config) { c.GuestRAMBytes = -1 << 20 })}},
		{"no RAM", Spec{Config: with(func(c *hvm.Config) { c.GuestRAMBytes = 0 })}},
		{"512 MiB RAM", Spec{Config: with(func(c *hvm.Config) { c.GuestRAMBytes = 512 << 20 })}},
		{"64 vCPUs", Spec{Config: with(func(c *hvm.Config) { c.VCPUs = 64 })}},
		{"small code cache", Spec{Config: with(func(c *hvm.Config) { c.CodeCacheBytes = 4096 })}},
		{"no page-table pool", Spec{Config: with(func(c *hvm.Config) { c.PTPoolBytes = 0 })}},
		{"no port", Spec{Config: small(1)}},
	}
	for _, engine := range []string{"interp", "captive", "qemu"} {
		for _, c := range cases {
			s := c.spec
			s.Engine = engine
			if c.name != "no port" {
				s.Port = ga64.Port{}
			}
			if _, err := New(s); err == nil {
				t.Errorf("%s: %s: New succeeded", engine, c.name)
			}
		}
	}
	for _, s := range []Spec{
		{Config: small(1), Port: ga64.Port{}, Engine: "bochs"},
		{Config: small(2), Port: rv64.Port{}, Engine: "qemu", Parallel: true},
		{Config: small(2), Port: rv64.Port{}, Engine: "interp", Parallel: true},
	} {
		if _, err := New(s); err == nil {
			t.Errorf("%+v: New succeeded", s)
		}
	}
}

// TestLoadOutOfRange pins the overflow-safe bounds check of every loader:
// 16 bytes at 2^64-8 wrap past zero, and must be an error on every engine,
// as must a load that ends one word past guest RAM.
func TestLoadOutOfRange(t *testing.T) {
	data := make([]byte, 16)
	for _, engine := range []string{"interp", "captive", "qemu"} {
		m, err := New(Spec{Config: small(1), Port: ga64.Port{}, Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		for _, pa := range []uint64{^uint64(0) - 7, 1<<20 - 8} {
			if err := m.Load(data, pa, org); err == nil {
				t.Errorf("%s: Load at %#x succeeded", engine, pa)
			}
			if err := m.LoadData(data, pa); err == nil {
				t.Errorf("%s: LoadData at %#x succeeded", engine, pa)
			}
			if err := m.ReadRAM(pa, data); err == nil {
				t.Errorf("%s: ReadRAM at %#x succeeded", engine, pa)
			}
		}
		if err := m.LoadData(data, 1<<20-16); err != nil {
			t.Errorf("%s: LoadData flush with the end of RAM: %v", engine, err)
		}
	}
}
