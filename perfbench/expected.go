package main

// Reference results of the long kernels, recorded once from the golden
// interpreter (interp, O4). TestExpectedFromInterp re-derives every entry;
// run it with -v after changing a kernel and copy the printed values here.

import "fmt"

// expect is what a kernel must leave behind on every hart.
type expect struct {
	name    string
	missing bool
	instrs  uint64   // retired guest instructions per hart
	exit    uint64   // exit code of hart 0
	sums    []uint64 // checksum register per hart
}

var recorded = map[string]expect{
	// The mini-OS ends a run with hlt #1 on the exit syscall.
	"ga64/473.astar": {instrs: 3805314, exit: 1, sums: []uint64{0x439ea62c}},
	"ga64/445.gobmk": {instrs: 6008416, exit: 1, sums: []uint64{0x60ae0}},
	"rv64/vmsum-48":  {instrs: 172551, exit: 0, sums: []uint64{0x9349800}},
	"rv64/vmsum-480": {instrs: 1725159, exit: 0, sums: []uint64{0x387a2f000}},
	// The SMP kernel's checksums depend on the seed; lcgSum models them.
	"rv64/smp-lcg-100": {instrs: 800635, exit: 0},
}

// expectFor returns the recorded values for a kernel; a kernel without
// them fails its check rather than passing unchecked.
func expectFor(name string) *expect {
	e, ok := recorded[name]
	e.name, e.missing = name, !ok
	return &e
}

// verify checks one machine's outcome against its reference run and its
// recorded values.
func verify(j job, o, ref *outcome) error {
	if j.ref >= 0 {
		if ref == nil || ref.err != nil {
			return fmt.Errorf("%s: reference run failed, state unverified", j.prog.name)
		}
		if !ref.state.Equal(o.state) {
			return fmt.Errorf("%s: %s state differs from interp: %s", j.prog.name, j.cfg.engine, ref.state.Diff(o.state))
		}
	}
	w := j.want
	if w == nil {
		return nil
	}
	if w.missing {
		return fmt.Errorf("%s: no recorded reference values", w.name)
	}
	for h, n := range o.hartInstrs {
		if n != w.instrs {
			return fmt.Errorf("%s: %s hart %d retired %d instructions, want %d", w.name, j.cfg.engine, h, n, w.instrs)
		}
	}
	if o.state.ExitCode != w.exit {
		return fmt.Errorf("%s: %s exit code %#x, want %#x", w.name, j.cfg.engine, o.state.ExitCode, w.exit)
	}
	if len(o.sums) != len(w.sums) {
		return fmt.Errorf("%s: %s has %d harts, want %d", w.name, j.cfg.engine, len(o.sums), len(w.sums))
	}
	for h, s := range o.sums {
		if s != w.sums[h] {
			return fmt.Errorf("%s: %s hart %d checksum %#x, want %#x", w.name, j.cfg.engine, h, s, w.sums[h])
		}
	}
	return nil
}
