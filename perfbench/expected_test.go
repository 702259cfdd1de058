package main

import "testing"

// TestExpectedFromInterp re-derives the recorded reference values of every
// long kernel on the golden interpreter. With -v it prints the values in
// the form expected.go records them.
func TestExpectedFromInterp(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the long kernels on the interpreter")
	}
	r := &runner{tr: &tracer{}}
	seen := map[string]bool{}
	for _, name := range workloadNames {
		pl, err := newPlan(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range pl.jobs {
			if j.want == nil || seen[j.prog.name] {
				continue
			}
			seen[j.prog.name] = true
			mod, err := buildModule(j.prog.guest)
			if err != nil {
				t.Fatal(err)
			}
			want := *j.want
			if len(want.sums) > 1 {
				want.sums = want.sums[:1] // the interpreter runs hart 0 only
			}
			ref := job{prog: j.prog, cfg: interpOn(defaultCfg.GuestRAMBytes), ref: -1, want: &want}
			o := r.runMachine(-1, ref.prog, ref.cfg, mod, false, func(*outcome) error { return nil })
			if o.err != nil {
				t.Fatalf("%s: %v", j.prog.name, o.err)
			}
			t.Logf("%q: {instrs: %d, exit: %d, sums: []uint64{%#x}},", j.prog.name, o.instrs, o.state.ExitCode, o.sums[0])
			if err := verify(ref, o, nil); err != nil {
				t.Error(err)
			}
		}
	}
}
