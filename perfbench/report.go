package main

// Metric definitions and the human-readable report.

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// def names a metric and its unit.
type def struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, from untraced
// passes. error_rate is the result line's failed/attempted.
var endToEnd = []def{
	{"guest_mips.captive", "MIPS"},
	{"guest_mips.qemu", "MIPS"},
	{"guest_mips.interp", "MIPS"},
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"machines_per_s", "1/s"},
	{"machine_ms.p50", "ms"},
	{"machine_ms.p95", "ms"},
	{"heap_mib_per_machine", "MiB"},
	{"sim_dcycles_per_instr.captive", "dcycles/instr"},
	{"sim_dcycles_per_instr.qemu", "dcycles/instr"},
}

// perLayer are the metrics of single layers, from traced passes. Times and
// counts are per pass.
var perLayer = []def{
	{"gen.build_ms", "ms"},
	{"hvm.new_ms", "ms"},
	{"hvm.phys_mib", "MiB"},
	{"core.new_ms", "ms"},
	{"core.load_ms", "ms"},
	{"interp.new_ms", "ms"},
	{"core.jit_ms", "ms"},
	{"core.jit_blocks", "count"},
	{"core.jit_us_per_block", "us"},
	{"core.jit_lir_per_block", "count"},
	{"core.jit_code_bytes", "bytes"},
	{"core.run_ms", "ms"},
	{"core.dispatch_per_kinstr", "1/kinstr"},
	{"core.chain_patches", "count"},
	{"core.mmio_per_kinstr", "1/kinstr"},
	{"vx64.host_insts_per_instr", "insts/instr"},
	{"vx64.ns_per_host_inst", "ns"},
	{"vx64.tlb_hit_ratio", "ratio"},
	{"core.host_faults_per_kinstr", "1/kinstr"},
	{"core.guest_faults_per_kinstr", "1/kinstr"},
	{"vx64.page_faults_per_kinstr", "1/kinstr"},
	{"core.trans_flushes", "count"},
	{"core.cache_flushes", "count"},
	{"core.smc_invals", "count"},
	{"core.flush_est_ms", "ms"},
	{"vx64.invalidate_full_ms", "ms"},
	{"interp.run_ms", "ms"},
	{"readback_ms", "ms"},
	{"smp.parallel_eff", "ratio"},
	{"smp.smc_invals", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_mib", "MiB"},
	{"trace.uncovered_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// expectedTop is the layer the known profile says dominates self time.
var expectedTop = map[string]string{
	"spec-steady": "core.run",
	"vm-churn":    "hvm.new",
	"sys-flush":   "core.flush~",
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func secs(d time.Duration) float64 { return d.Seconds() }

// engineTotals sums one engine's runs in a pass.
type engineTotals struct {
	instrs, dcycles float64 // dcycles and detInstrs over deterministic runs only
	detInstrs       float64
	run             time.Duration
}

// passE2E computes the end-to-end values of one untraced pass (all but the
// machine latency percentiles, which are pooled over the run).
func passE2E(pl *plan, pr *passResult) map[string]float64 {
	v := map[string]float64{}
	eng := map[string]*engineTotals{"captive": {}, "qemu": {}, "interp": {}}
	setup, heap := pr.build, 0.0
	for i, o := range pr.outs {
		j := pl.jobs[i]
		t := eng[j.cfg.engine]
		t.instrs += float64(o.instrs)
		t.run += o.run
		if !j.nondet {
			t.detInstrs += float64(o.instrs)
			t.dcycles += float64(o.snap.SimDeciCycles)
		}
		setup += o.hvmNew + o.construct + o.load
		heap = max(heap, o.heapMiB)
	}
	for name, t := range eng {
		v["guest_mips."+name] = div(t.instrs, secs(t.run)) / 1e6
		v["sim_dcycles_per_instr."+name] = div(t.dcycles, t.detInstrs)
	}
	v["setup_s"] = secs(setup)
	v["wall_s"] = secs(pr.wall)
	v["machines_per_s"] = div(float64(len(pr.outs)), secs(pr.wall))
	v["heap_mib_per_machine"] = heap
	return v
}

// passLayers computes the per-layer values of one traced pass.
func passLayers(pl *plan, pr *passResult) map[string]float64 {
	v := map[string]float64{}
	var hvmNew, coreNew, coreLoad, interpNew, jit, run, interpRun, readback, flush time.Duration
	var instrs float64
	var phys float64
	var s, x1, x2 struct {
		instrs, dispatch, chains, mmio, hostInsts, hits, misses, hostFaults, guestFaults, pageFaults float64
		trans, cache, smc, blocks, lir, code                                                         float64
		run                                                                                          time.Duration
	}
	for i, o := range pr.outs {
		readback += o.readback
		phys = max(phys, o.physMiB)
		if pl.jobs[i].cfg.engine == "interp" {
			interpNew += o.construct
			interpRun += o.run
			continue
		}
		hvmNew += o.hvmNew
		coreNew += o.construct
		coreLoad += o.load
		jit += o.jit
		run += o.run - o.jit
		flush += o.flushEst
		instrs += float64(o.instrs)
		n := o.snap
		s.dispatch += float64(n.DispatchLoops)
		s.chains += float64(n.BlockChains)
		s.mmio += float64(n.MMIOEmulations)
		s.hostInsts += float64(n.HostInsts)
		s.hits += float64(n.HostTLBHits)
		s.misses += float64(n.HostTLBMisses)
		s.hostFaults += float64(n.HostFaults)
		s.guestFaults += float64(n.GuestFaults)
		s.pageFaults += float64(n.HostPageFault)
		s.trans += float64(n.TransFlushes)
		s.cache += float64(n.CacheFlushes)
		s.smc += float64(n.SMCInvals)
		s.blocks += float64(n.JITBlocks)
		s.lir += float64(n.JITLIRInsts)
		s.code += float64(n.JITCodeBytes)
		switch pl.jobs[i].cfg.vcpus {
		case 1:
			x1.instrs, x1.run = float64(o.instrs), o.run
		case 2:
			x2.instrs, x2.run, x2.smc = float64(o.instrs), o.run, float64(n.SMCInvals)
		}
	}
	kinstr := instrs / 1000
	v["gen.build_ms"] = ms(pr.build)
	v["hvm.new_ms"] = ms(hvmNew)
	v["hvm.phys_mib"] = phys
	v["core.new_ms"] = ms(coreNew)
	v["core.load_ms"] = ms(coreLoad)
	v["interp.new_ms"] = ms(interpNew)
	v["core.jit_ms"] = ms(jit)
	v["core.jit_blocks"] = s.blocks
	v["core.jit_us_per_block"] = div(ms(jit)*1000, s.blocks)
	v["core.jit_lir_per_block"] = div(s.lir, s.blocks)
	v["core.jit_code_bytes"] = s.code
	v["core.run_ms"] = ms(run)
	v["core.dispatch_per_kinstr"] = div(s.dispatch, kinstr)
	v["core.chain_patches"] = s.chains
	v["core.mmio_per_kinstr"] = div(s.mmio, kinstr)
	v["vx64.host_insts_per_instr"] = div(s.hostInsts, instrs)
	v["vx64.ns_per_host_inst"] = div(float64(run), s.hostInsts)
	v["vx64.tlb_hit_ratio"] = div(s.hits, s.hits+s.misses)
	v["core.host_faults_per_kinstr"] = div(s.hostFaults, kinstr)
	v["core.guest_faults_per_kinstr"] = div(s.guestFaults, kinstr)
	v["vx64.page_faults_per_kinstr"] = div(s.pageFaults, kinstr)
	v["core.trans_flushes"] = s.trans
	v["core.cache_flushes"] = s.cache
	v["core.smc_invals"] = s.smc
	v["core.flush_est_ms"] = ms(flush)
	v["interp.run_ms"] = ms(interpRun)
	v["readback_ms"] = ms(readback)
	v["smp.parallel_eff"] = div(div(x2.instrs, secs(x2.run)), 2*div(x1.instrs, secs(x1.run)))
	v["smp.smc_invals"] = x2.smc
	v["runtime.gc_cycles"] = float64(pr.gcCycles)
	v["runtime.gc_pause_ms"] = ms(pr.gcPause)
	v["runtime.alloc_mib"] = pr.allocMiB
	v["trace.uncovered_ms"] = ms(pr.uncovered)
	return v
}

// medians takes the per-name median over passes.
func medians(vals []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	if len(vals) == 0 {
		return out
	}
	for name := range vals[0] {
		var xs []float64
		for _, v := range vals {
			xs = append(xs, v[name])
		}
		out[name] = median(xs)
	}
	return out
}

// report prints the human-readable report and returns the metrics of the
// result line: the end-to-end ones for an untraced run, the per-layer ones
// for a traced run.
func report(w io.Writer, workload string, seed int64, pl *plan, res *runResult) map[string]metric {
	traced := false
	var untraced, tracedVals []map[string]float64
	var lifecycles []float64
	var wallU, wallT []float64
	for _, pr := range res.passes {
		if pr.traced {
			traced = true
			tracedVals = append(tracedVals, passLayers(pl, pr))
			wallT = append(wallT, ms(pr.wall))
			continue
		}
		untraced = append(untraced, passE2E(pl, pr))
		wallU = append(wallU, ms(pr.wall))
		for _, o := range pr.outs {
			lifecycles = append(lifecycles, ms(o.lifecycle()))
		}
	}
	e2e := medians(untraced)
	e2e["machine_ms.p50"] = quantile(lifecycles, 0.50)
	e2e["machine_ms.p95"] = quantile(lifecycles, 0.95)

	fmt.Fprintf(w, "perfbench: workload %s, seed %d, traced %v\n", workload, seed, traced)
	fmt.Fprintf(w, "host: %s %s/%s, GOMAXPROCS %d, nproc %d, cpu %s\n", runtime.Version(), runtime.GOOS,
		runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel())
	var cfgNames []string
	for name := range pl.configs {
		cfgNames = append(cfgNames, name)
	}
	sort.Strings(cfgNames)
	for _, name := range cfgNames {
		fmt.Fprintf(w, "config %s: %+v\n", name, pl.configs[name])
	}
	fmt.Fprintf(w, "config interp: difftest.RAMBytes guest RAM for generated programs, 64 MiB for mini-OS kernels; offline level O4 everywhere\n")
	for i, pr := range res.passes {
		kind := "untraced"
		if pr.traced {
			kind = "traced"
		}
		v := passE2E(pl, pr)
		fmt.Fprintf(w, "pass %d (%s): wall %.3f s, setup %.3f s, %d machines, MIPS captive/qemu/interp %.3f/%.3f/%.3f, module build %.2f ms, gc %d cycles %.2f ms pause, alloc %.0f MiB\n",
			i, kind, secs(pr.wall), v["setup_s"], len(pr.outs), v["guest_mips.captive"], v["guest_mips.qemu"], v["guest_mips.interp"],
			ms(pr.build), pr.gcCycles, ms(pr.gcPause), pr.allocMiB)
	}
	for _, e := range res.errs {
		fmt.Fprintf(w, "error: %s\n", e)
	}
	fmt.Fprintf(w, "error_rate: %g (%d failed of %d attempted machine runs)\n",
		div(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	fmt.Fprintf(w, "determinism: deterministic counters identical across passes: %v\n", res.deterministic)

	fmt.Fprintf(w, "end-to-end (median over %d untraced passes):\n", len(untraced))
	for _, d := range endToEnd {
		note := ""
		if d.name == "machine_ms.p95" {
			n := len(lifecycles)
			note = fmt.Sprintf("  (%d lifecycles, %d beyond p95", n, n-int(0.95*float64(n))-1)
			if n < 200 {
				note += "; fewer than 10 beyond it, so this is a tail bound only"
			}
			note += ")"
		}
		fmt.Fprintf(w, "  %-30s %14.4f %s%s\n", d.name, e2e[d.name], d.unit, note)
	}

	out := map[string]metric{}
	if !traced {
		for _, d := range endToEnd {
			out[d.name] = metric{e2e[d.name], d.unit}
		}
		return out
	}

	layers := medians(tracedVals)
	layers["vx64.invalidate_full_ms"] = res.invalidateMS
	layers["trace.overhead_ms"] = median(wallT) - median(wallU)
	fmt.Fprintf(w, "per-layer (median over %d traced passes, per pass):\n", len(tracedVals))
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-30s %14.4f %s\n", d.name, layers[d.name], d.unit)
		out[d.name] = metric{layers[d.name], d.unit}
	}
	top := printSelfTimes(w, selfTimes(res.tr.spans))
	fmt.Fprintf(w, "uncovered remainder: %.2f ms per traced pass (median)\n", layers["trace.uncovered_ms"])
	fmt.Fprintf(w, "tracing overhead: %.2f ms per pass (median traced wall %.2f ms - median untraced wall %.2f ms)\n",
		layers["trace.overhead_ms"], median(wallT), median(wallU))
	verdict := "matches"
	if top != expectedTop[workload] {
		verdict = "DIFFERS from"
	}
	fmt.Fprintf(w, "profile check: largest self time is %s; %s the known profile (%s)\n", top, verdict, expectedTop[workload])
	return out
}
