// Command perfbench is the repository's end-to-end benchmark of the DBT
// simulator. It runs one workload for a fixed time, checks every machine's
// result against a reference, and prints the end-to-end metrics (untraced
// run) or the per-layer metrics and a self-time table (traced run). The last
// line of standard output is one JSON object. See README.md.
//
//	perfbench --workload vm-churn --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"captive/internal/gen"
	"captive/internal/hvm"
)

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measurement time")
	traced := flag.Int("trace", 0, "1: traced run (per-layer metrics and self-time table)")
	flag.Parse()
	if *workload == "" || flag.NArg() > 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	pl, err := newPlan(*workload, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res := measure(*workload, pl, time.Duration(*seconds)*time.Second, *traced == 1)
	metrics := report(os.Stdout, *workload, *seed, pl, res)
	printResult(os.Stdout, res, metrics)
}

// runner executes passes and owns the span recorder.
type runner struct {
	tr       *tracer
	machines int
	// flushNSPerMiB is the measured cost of one whole-code-region
	// invalidation per MiB of code cache; traced runs attribute it to each
	// flush inside Run as the estimated child span core.flush~.
	flushNSPerMiB float64
}

// passResult is one replay of the plan.
type passResult struct {
	traced   bool
	wall     time.Duration
	build    time.Duration
	outs     []*outcome
	gcCycles uint32
	gcPause  time.Duration
	allocMiB float64
	// uncovered is the pass wall no layer span covers (traced passes).
	uncovered time.Duration
}

// runResult is everything one benchmark run measured.
type runResult struct {
	tr            *tracer
	passes        []*passResult
	invalidateMS  float64
	attempted     int
	failed        int
	errs          []string
	deterministic bool
}

// minPasses is the least number of passes a run makes, so that every
// median has at least three samples (two of each kind in a traced run).
// Beyond it, a run starts another pass only if a pass of median length
// still ends within the measurement time.
func minPasses(traced bool) int {
	if traced {
		return 4
	}
	return 3
}

func measure(workload string, pl *plan, d time.Duration, traced bool) *runResult {
	r := &runner{tr: &tracer{workload: workload, t0: time.Now()}}
	res := &runResult{tr: r.tr, deterministic: true}
	warmHeap()
	if traced {
		res.invalidateMS = probeInvalidate()
		r.flushNSPerMiB = res.invalidateMS * 1e6 / float64(defaultCfg.CodeCacheBytes>>20)
	}
	start := time.Now()
	var walls []float64
	for i := 0; ; i++ {
		passWall := time.Duration(median(walls) * float64(time.Second))
		if i >= minPasses(traced) && time.Since(start)+passWall > d {
			break
		}
		// A traced run alternates untraced and traced passes; the
		// difference of their walls is the tracing overhead.
		pr := r.runPass(pl, i, traced && i%2 == 1)
		res.passes = append(res.passes, pr)
		walls = append(walls, pr.wall.Seconds())
		for k, o := range pr.outs {
			res.attempted++
			if o.err != nil {
				res.failed++
				if len(res.errs) < 10 {
					res.errs = append(res.errs, fmt.Sprintf("pass %d job %d: %v", i, k, o.err))
				}
			}
		}
		if i > 0 && signature(pl, pr) != signature(pl, res.passes[0]) {
			res.deterministic = false
		}
	}
	return res
}

// warmHeap grows the Go heap by one machine before the first pass, so the
// first pass's machines reuse freed memory like every later pass does.
func warmHeap() {
	if _, err := hvm.New(defaultCfg); err != nil {
		panic(err) // the default configuration is valid by construction
	}
	runtime.GC()
}

// probeInvalidate times one whole-region code invalidation,
// vm.CPU.InvalidateCode(CodePA, CodeSize), on a separate default-sized
// machine: the unit of work behind every code-cache flush. It returns the
// median of several calls in milliseconds.
func probeInvalidate() float64 {
	vm, err := hvm.New(defaultCfg)
	if err != nil {
		panic(err)
	}
	var ts []float64
	for i := 0; i < 7; i++ {
		t := time.Now()
		vm.CPU.InvalidateCode(vm.Layout.CodePA, vm.Layout.CodeSize)
		ts = append(ts, ms(time.Since(t)))
	}
	runtime.KeepAlive(vm)
	return median(ts)
}

func (r *runner) runPass(pl *plan, idx int, traced bool) *passResult {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r.tr.on, r.tr.pass = traced, idx
	first := len(r.tr.spans)
	pr := &passResult{traced: traced, outs: make([]*outcome, len(pl.jobs))}
	root := r.tr.begin("pass", "", 0, -1)
	mods := map[*guest]*gen.Module{}
	var buildErr error
	for _, g := range pl.guests {
		h := r.tr.begin("gen.build", "", 0, root.id)
		m, err := buildModule(g)
		pr.build += h.end()
		if err != nil && buildErr == nil {
			buildErr = err
		}
		mods[g] = m
	}
	probed := map[string]bool{}
	for i, j := range pl.jobs {
		j := j
		if buildErr != nil {
			pr.outs[i] = &outcome{err: buildErr}
			continue
		}
		key := j.cfg.key(j.prog.guest)
		var ref *outcome
		if j.ref >= 0 {
			ref = pr.outs[j.ref]
		}
		pr.outs[i] = r.runMachine(root.id, j.prog, j.cfg, mods[j.prog.guest], !probed[key],
			func(o *outcome) error { return verify(j, o, ref) })
		probed[key] = true
	}
	pr.wall = root.end()
	r.tr.on = false
	runtime.ReadMemStats(&m1)
	pr.gcCycles = m1.NumGC - m0.NumGC
	pr.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	pr.allocMiB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	if traced {
		pr.uncovered = selfTimes(r.tr.spans[first:])["pass"].self
	}
	return pr
}

// signature renders the deterministic counters of a pass: every run's
// guest instructions, simulated deci-cycles, simulated host instructions,
// JIT blocks and LIR, flushes and SMC invalidations, and every hart's
// checksum. Runs of parallel harts contribute only their per-hart
// instruction counts and checksums.
func signature(pl *plan, pr *passResult) string {
	var sb strings.Builder
	for i, o := range pr.outs {
		fmt.Fprintf(&sb, "%d:%v:%x;", i, o.hartInstrs, o.sums)
		if !pl.jobs[i].nondet {
			s := o.snap
			fmt.Fprintf(&sb, "%d/%d/%d/%d/%d/%d/%d/%d;", s.GuestInstrs, s.SimDeciCycles, s.HostInsts,
				s.JITBlocks, s.JITLIRInsts, s.CacheFlushes, s.TransFlushes, s.SMCInvals)
		}
	}
	return sb.String()
}

// cpuModel reads the host CPU model for the report header.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints the machine-readable last line.
func printResult(w io.Writer, res *runResult, metrics map[string]metric) {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0 && res.deterministic, res.attempted, res.failed, metrics}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // every value is finite by construction
	}
	fmt.Fprintln(w, string(b))
}
