package bench

import (
	"reflect"
	"strings"
	"testing"
)

func runKey(r modelRun) string { return r.kind.String() + "/" + r.guest.Arch() + "/" + r.name }

// TestModelKeysNameOneRun checks that a row key names one run: within a
// mode no key repeats, and a key planned in both short and full mode runs
// the same image on the same machine, so a short report can be gated
// against a full one.
func TestModelKeysNameOneRun(t *testing.T) {
	plans := map[string]modelRun{}
	for _, short := range []bool{true, false} {
		runs, err := modelRuns(short)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, r := range runs {
			k := runKey(r)
			if seen[k] {
				t.Errorf("short=%v: key %s planned twice", short, k)
			}
			seen[k] = true
			if p, ok := plans[k]; ok && (p.parallel != r.parallel || !reflect.DeepEqual(p.img, r.img)) {
				t.Errorf("key %s names different runs in short and full mode", k)
			}
			plans[k] = r
		}
	}
}

func gateReport(rows ...ModelRow) *ModelReport {
	return &ModelReport{Schema: modelSchema, Rows: rows}
}

// TestCheckBaseline covers the model gate: matching rows pass, a moved
// instruction count, checksum or simulated cycle count fails naming the
// row, and a row the baseline lacks is skipped.
func TestCheckBaseline(t *testing.T) {
	base := ModelRow{Guest: "rv64", Workload: "rv64.calls", Engine: "qemu",
		GuestInstrs: 240004, SimDeciCycles: 30622517, Checksum: 0xabc}
	other := ModelRow{Guest: "ga64", Workload: "429.mcf", Engine: "interp", GuestInstrs: 4991636, Checksum: 7}
	if err := gateReport(other, base).CheckBaseline(gateReport(base, other)); err != nil {
		t.Errorf("matching rows: %v", err)
	}
	fresh := base
	fresh.Workload = "rv64.new"
	if err := gateReport(fresh).CheckBaseline(gateReport(base)); err != nil {
		t.Errorf("row missing from the baseline: %v", err)
	}
	for name, move := range map[string]func(*ModelRow){
		"instrs":   func(r *ModelRow) { r.GuestInstrs++ },
		"checksum": func(r *ModelRow) { r.Checksum ^= 1 },
		"cycles":   func(r *ModelRow) { r.SimDeciCycles-- },
	} {
		moved := base
		move(&moved)
		err := gateReport(other, moved).CheckBaseline(gateReport(base, other))
		if err == nil || !strings.Contains(err.Error(), "qemu/rv64/rv64.calls") {
			t.Errorf("moved %s: err = %v, want a failure naming qemu/rv64/rv64.calls", name, err)
		}
	}
}

// TestCommittedReportsLoad reads the committed guest-MIPS reports the gate
// is run against, and checks that the full matrix still plans every row
// they record.
func TestCommittedReportsLoad(t *testing.T) {
	runs, err := modelRuns(false)
	if err != nil {
		t.Fatal(err)
	}
	planned := map[string]bool{}
	for _, r := range runs {
		planned[runKey(r)] = true
	}
	for _, name := range []string{"BENCH_5.json", "BENCH_8.json"} {
		rep, err := ReadModelReport("../../" + name)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Rows) < 48 {
			t.Errorf("%s: %d rows, want at least 48", name, len(rep.Rows))
		}
		for _, row := range rep.Rows {
			if !planned[row.Key()] || row.GuestInstrs == 0 {
				t.Errorf("%s: row %s (%d instrs) is not a planned full-mode row", name, row.Key(), row.GuestInstrs)
			}
		}
	}
}
