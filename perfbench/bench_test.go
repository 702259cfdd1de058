package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestDeterministicCounters runs one pass of each workload from two plans
// built from the same seed and requires identical deterministic counters:
// guest instructions, simulated deci-cycles, simulated host instructions,
// JIT blocks and LIR, flushes, SMC invalidations and checksums.
func TestDeterministicCounters(t *testing.T) {
	for _, name := range workloadNames {
		if testing.Short() && name == "spec-steady" {
			continue
		}
		var sigs []string
		for run := 0; run < 2; run++ {
			pl, err := newPlan(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			if name == "vm-churn" {
				pl.jobs = pl.jobs[:12] // four programs on three engines
			}
			// The second run is traced: tracing must not move a counter.
			pr := (&runner{tr: &tracer{workload: name}}).runPass(pl, run, run == 1)
			for i, o := range pr.outs {
				if o.err != nil {
					t.Fatalf("%s run %d job %d: %v", name, run, i, o.err)
				}
			}
			sigs = append(sigs, signature(pl, pr))
		}
		if sigs[0] != sigs[1] {
			t.Errorf("%s: deterministic counters differ between two runs of seed 7:\n%s\n%s", name, sigs[0], sigs[1])
		}
	}
}

// TestChurnStreamFollowsSeed checks that the seed picks the vm-churn
// program stream but not its length.
func TestChurnStreamFollowsSeed(t *testing.T) {
	images := func(seed int64) [][]byte {
		pl, err := vmChurn(seed, churnPrograms)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for _, j := range pl.jobs {
			out = append(out, j.prog.image)
		}
		return out
	}
	a, again, b := images(1), images(1), images(2)
	if len(a) != len(b) || len(a) != 3*churnPrograms {
		t.Fatalf("stream lengths %d and %d, want %d", len(a), len(b), 3*churnPrograms)
	}
	same := 0
	for i := range a {
		if !bytes.Equal(a[i], again[i]) {
			t.Fatalf("job %d: seed 1 gave two different programs", i)
		}
		if bytes.Equal(a[i], b[i]) {
			same++
		}
	}
	if same == len(a) {
		t.Error("seeds 1 and 2 gave the same program stream")
	}
}

// TestBenchmarkJSONMatches keeps the metric lists in ../BENCHMARK.json and
// the ones this program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []def) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program prints %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, w.Name, workloadNames[i])
		}
	}
}
