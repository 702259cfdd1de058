// Command captive boots a guest image under a chosen execution engine and
// guest architecture and reports console output and run statistics — the
// command-line face of the DBT hypervisor. All three engines (the Captive
// DBT, the QEMU-style baseline and the unified reference interpreter) run
// either ported guest: the engines consume the guest exclusively through
// the port layer, so the matrix below is the paper's retargetability claim
// as a CLI.
//
//	captive -image kernel.bin                       # Captive DBT, GA64
//	captive -image os.bin -guest rv64 -engine qemu  # baseline, RISC-V
//	captive -demo -engine interp                    # golden model demo
//	captive -demo -guest rv64 -smp 4                # 4 vCPUs, truly parallel
//
// The introspection layer (internal/trace) is surfaced through three flags,
// none of which moves the simulated clock:
//
//	captive -demo -trace run.jsonl   # structured event stream (.bin: compact binary)
//	captive -demo -profile 10        # top-10 hot blocks by attributed deci-cycles
//	captive -demo -metrics           # unified metrics snapshot as JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"captive/ga64asm"
	"captive/internal/core"
	"captive/internal/guest/ga64"
	"captive/internal/guest/port"
	"captive/internal/guest/rv64"
	rvasm "captive/internal/guest/rv64/asm"
	"captive/internal/hvm"
	"captive/internal/machine"
	"captive/internal/perf"
	"captive/internal/ssa"
	"captive/internal/trace"
)

// observeOpts carries the introspection flags into run.
type observeOpts struct {
	tracePath string // "" = tracing off
	profile   int    // top-N hot blocks to print (0 = off; DBT engines only)
	metrics   bool   // print the unified metrics snapshot as JSON
}

// openTrace builds the recorder for -trace: a JSONL sink, or the compact
// binary sink for .bin paths. All event kinds are enabled. The caller closes
// the returned file after the recorder is closed.
func (o observeOpts) openTrace() (*trace.Recorder, *os.File, error) {
	if o.tracePath == "" {
		return nil, nil, nil
	}
	f, err := os.Create(o.tracePath)
	if err != nil {
		return nil, nil, err
	}
	var sink trace.Sink
	if strings.HasSuffix(o.tracePath, ".bin") {
		sink = trace.NewBinaryWriter(f)
	} else {
		sink = trace.NewJSONLWriter(f)
	}
	return trace.NewRecorder(sink, trace.AllKinds), f, nil
}

func main() {
	imagePath := flag.String("image", "", "raw guest image (loaded at -load, entered at -entry)")
	load := flag.Uint64("load", 0x1000, "guest physical load address")
	entry := flag.Uint64("entry", 0x1000, "guest entry point")
	engine := flag.String("engine", "captive", "execution engine: captive, qemu, interp")
	guest := flag.String("guest", "ga64", "guest architecture: ga64, rv64")
	ram := flag.Int("ram", 64, "guest RAM in MiB")
	opt := flag.Int("opt", 4, "offline optimization level (1..4)")
	demo := flag.Bool("demo", false, "run the bundled demo guest")
	smp := flag.Int("smp", 1, "number of vCPUs (captive runs them truly parallel; qemu and interp use the deterministic scheduler)")
	tracePath := flag.String("trace", "", "write the structured event stream to this file (.jsonl text; .bin compact binary)")
	profile := flag.Int("profile", 0, "print the top-N hot blocks by attributed sim deci-cycles (DBT engines)")
	metricsOut := flag.Bool("metrics", false, "print the unified metrics snapshot as JSON after the run")
	flag.Parse()

	var gp port.Port
	switch *guest {
	case "ga64":
		gp = ga64.Port{}
	case "rv64":
		gp = rv64.Port{}
	default:
		fmt.Fprintf(os.Stderr, "captive: unknown guest %q\n", *guest)
		os.Exit(1)
	}

	var image []byte
	var err error
	switch {
	case *demo:
		image, err = demoImage(*guest)
	case *imagePath != "":
		image, err = os.ReadFile(*imagePath)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "captive:", err)
		os.Exit(1)
	}

	obs := observeOpts{tracePath: *tracePath, profile: *profile, metrics: *metricsOut}
	if err := run(gp, ssa.OptLevel(*opt), *engine, image, *load, *entry, *ram<<20, *smp, obs); err != nil {
		fmt.Fprintln(os.Stderr, "captive:", err)
		os.Exit(1)
	}
}

// run executes the image on n vCPUs of the selected engine (machine.New
// rejects an unknown engine or an out-of-range size) and prints the
// report. Every vCPU enters the image at the same entry point and
// dispatches on its hart ID (mhartid / MPIDR). With several vCPUs the
// Captive engine runs them truly parallel (one goroutine each,
// stop-the-world for shared translation state); the QEMU baseline and the
// interpreter cluster run under the deterministic round-robin scheduler.
// The trace recorder, profile and metrics flags observe vCPU 0.
func run(gp port.Port, level ssa.OptLevel, engine string, image []byte, load, entry uint64, ramBytes, n int, obs observeOpts) error {
	rec, traceFile, err := obs.openTrace()
	if err != nil {
		return err
	}
	m, err := machine.New(machine.Spec{
		Config: hvm.Config{GuestRAMBytes: ramBytes, CodeCacheBytes: 16 << 20, PTPoolBytes: 4 << 20, VCPUs: n},
		Port:   gp, Engine: engine, Level: level, Parallel: n > 1 && engine == "captive", Trace: rec,
	})
	if err != nil {
		return err
	}
	if err := m.Load(image, load, entry); err != nil {
		return err
	}
	// ~100 simulated seconds per vCPU; the interpreter counts steps.
	if err := m.Run(4_000_000_000, 3_500_000_000_0*100); err != nil && err != core.ErrBudget {
		return err
	}
	if rec != nil {
		err := rec.Close()
		if cerr := traceFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	if out := m.Console(); out != "" {
		fmt.Print(out)
	}
	arch := gp.Arch()
	h0 := m.Hart(0)
	ms := h0.Metrics()
	if n == 1 {
		_, code := h0.Halted()
		fmt.Printf("\n--- %s/%s halted=%v exit=%d ---\n", arch, engine, m.Halted(), code)
		fmt.Printf("guest instructions: %d\n", ms.GuestInstrs)
		if engine == "interp" {
			fmt.Printf("guest exceptions:   %d\n", ms.GuestFaults)
		} else if secs := perf.Seconds(ms.SimDeciCycles); secs > 0 {
			fmt.Printf("simulated time:     %.6f s (%.1f guest MIPS @ 3.5 GHz host)\n",
				secs, float64(ms.GuestInstrs)/secs/1e6)
			fmt.Printf("blocks translated:  %d (%d bytes of host code)\n", ms.JITBlocks, ms.JITCodeBytes)
		}
	} else {
		fmt.Printf("\n--- %s/%s x%d halted=%v ---\n", arch, engine, n, m.Halted())
		var total uint64
		for i := 0; i < n; i++ {
			h := m.Hart(i)
			_, code := h.Halted()
			fmt.Printf("hart %d: %12d guest instructions (exit=%d)\n", i, h.GuestInstrs(), code)
			total += h.GuestInstrs()
		}
		fmt.Printf("total:  %12d guest instructions\n", total)
	}
	if obs.profile > 0 {
		prof := m.Profile()
		if prof == nil {
			fmt.Println("hot-block profile: only the DBT engines collect one (-engine captive/qemu)")
		} else {
			fmt.Printf("hot blocks (top %d of %d, by attributed sim deci-cycles):\n", obs.profile, len(prof))
		}
		for i, bp := range prof {
			if i >= obs.profile {
				break
			}
			fmt.Printf("  %#10x  %12d cycles  %10d runs\n", bp.PC, bp.Cycles, bp.Runs)
		}
	}
	if obs.metrics {
		return printMetricsJSON(ms)
	}
	return nil
}

// printMetricsJSON renders any metrics snapshot to stdout.
func printMetricsJSON(v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// demoImage assembles a small bare-metal guest for the chosen architecture.
func demoImage(guest string) ([]byte, error) {
	if guest == "rv64" {
		// fib(20) into x11, then a clean ecall exit.
		p := rvasm.New(0x1000)
		p.Li(10, 0)
		p.Li(11, 1)
		p.Li(12, 20)
		p.Label("fib")
		p.Add(13, 10, 11)
		p.Mv(10, 11)
		p.Mv(11, 13)
		p.Addi(12, 12, -1)
		p.Bne(12, rvasm.X0, "fib")
		p.Ecall()
		return p.Assemble()
	}
	p := ga64asm.New(0x1000)
	p.MovI(10, ga64asm.UARTBase)
	for _, ch := range "captive-go: hello from the guest\n" {
		p.MovI(11, uint64(ch))
		p.Str32(11, 10, 0)
	}
	// fib(20) in a loop.
	p.MovI(0, 0)
	p.MovI(1, 1)
	p.MovI(2, 20)
	p.Label("fib")
	p.Add(3, 0, 1)
	p.Mov(0, 1)
	p.Mov(1, 3)
	p.SubsI(2, 2, 1)
	p.BCond(ga64asm.CondNE, "fib")
	p.Hlt(0)
	return p.Assemble()
}
