// Command bench regenerates the tables and figures of the paper's
// evaluation (§3). With no flags it reproduces everything; individual
// experiments are selected with -fig/-table/-sec.
//
//	bench -fig 17      # SPECint runtimes and speedups
//	bench -fig 18      # SPECfp speedups
//	bench -fig 19      # SimBench micro-benchmarks
//	bench -fig 20      # JIT phase breakdown
//	bench -fig 21      # per-block code quality (chaining off)
//	bench -fig 22      # comparison against native platform models
//	bench -table 2     # FSQRT corner cases
//	bench -table 5     # retargeted RV64 guest, Captive vs QEMU
//	bench -sec 3.4     # JIT statistics
//	bench -sec 3.6.1   # offline optimization levels
//	bench -sec 3.6.2   # hardware vs software floating point
//
// The figures report simulated time, the model; only Fig. 20's JIT phase
// shares and Sec. 3.4's host-ns-per-block are host wall-clock. The model
// report runs the engine x guest x workload matrix once and records each
// row's model values (guest instructions, simulated deci-cycles, checksum)
// as JSON; against a baseline report it is the model gate:
//
//	bench -json out.json                       # full matrix
//	bench -json out.json -short                # CI subset
//	bench -json out.json -baseline before.json # fail if any row's model moved
//
// Each report row also carries hart 0's metrics.Snapshot, which the gate
// never reads. Host wall-clock throughput is perfbench's to measure
// (perfbench/README.md): it repeats its runs, and this command times none.
package main

import (
	"flag"
	"fmt"
	"os"

	"captive/internal/bench"
	"captive/internal/perf"
)

func main() {
	fig := flag.Int("fig", 0, "figure number to regenerate (17, 18, 19, 20, 21, 22)")
	table := flag.Int("table", 0, "table number to regenerate (2, 5)")
	sec := flag.String("sec", "", "section to regenerate (3.4, 3.6.1, 3.6.2)")
	jsonPath := flag.String("json", "", "run the model report and write it to this path")
	baseline := flag.String("baseline", "", "baseline model report whose rows the new report must match (requires -json)")
	short := flag.Bool("short", false, "model report: the short row subset (CI gate)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}

	if *jsonPath == "" && (*baseline != "" || *short) {
		fail(fmt.Errorf("-baseline and -short select model report options and require -json"))
	}
	if *jsonPath != "" {
		rep, err := bench.RunModel(*short)
		if err != nil {
			fail(err)
		}
		if *baseline != "" {
			base, err := bench.ReadModelReport(*baseline)
			if err != nil {
				fail(err)
			}
			if err := rep.CheckBaseline(base); err != nil {
				fail(err)
			}
		}
		if err := rep.WriteJSON(*jsonPath); err != nil {
			fail(err)
		}
		fmt.Print(rep.String())
		return
	}

	all := *fig == 0 && *table == 0 && *sec == ""
	show := func(t perf.Table, err error) {
		if err != nil {
			fail(err)
		}
		fmt.Println(t.String())
	}

	if all || *fig == 17 {
		abs, spd, err := bench.Fig17()
		if err != nil {
			fail(err)
		}
		fmt.Println(abs.String())
		fmt.Println(spd.String())
	}
	if all || *fig == 18 {
		show(bench.Fig18())
	}
	if all || *fig == 19 {
		show(bench.Fig19())
	}
	if all || *fig == 20 {
		show(bench.Fig20())
	}
	if all || *fig == 21 {
		r, err := bench.Fig21()
		if err != nil {
			fail(err)
		}
		fmt.Println(r.Table.String())
	}
	if all || *fig == 22 {
		show(bench.Fig22())
	}
	if all || *table == 2 {
		show(bench.Table2())
	}
	if all || *table == 5 {
		show(bench.Table5())
	}
	if all || *sec == "3.4" {
		show(bench.Sec34())
	}
	if all || *sec == "3.6.1" {
		show(bench.Sec361())
	}
	if all || *sec == "3.6.2" {
		show(bench.Sec362())
	}
}
