package difftest

import (
	"testing"

	"captive/internal/ssa"
)

// The GA64 EL0 paging-fault lane: EL0 programs taking mid-block permission
// and translation aborts through every engine, bit-identical down to the
// block-granular instruction counts.
func TestMMUFaultCorpus(t *testing.T)                { testCorpus(t, MMUFaultLane) }
func TestMMUFaultSweep(t *testing.T)                 { testSweep(t, MMUFaultLane) }
func TestMMUFaultGenerateDeterministic(t *testing.T) { testDeterministic(t, MMUFaultLane) }

// TestMMUFaultActuallyFaults guards the lane against silently degenerating:
// a corpus-sized program must take guest exceptions beyond its SVC
// round-trips (i.e. real aborts), or the fault pages have stopped faulting.
func TestMMUFaultActuallyFaults(t *testing.T) {
	p, err := GenerateMMUFault(1, 40)
	if err != nil {
		t.Fatal(err)
	}
	out, err := MMUFaultLane.Run(p, EngineID{Name: "captive", Level: ssa.O4})
	if err != nil {
		t.Fatal(err)
	}
	if out.States[0].ExitCode != 0 {
		t.Fatalf("exit code %d", out.States[0].ExitCode)
	}
	if out.Metrics.GuestFaults == 0 {
		t.Fatal("no guest faults were injected — the fault pages are not faulting")
	}
}
