package difftest

import "testing"

// The two-hart SMP lane: fresh seeded programs through the interpreter
// cluster, the Captive DBT at O1–O4 and the QEMU baseline, all under the
// deterministic round-robin scheduler, with bit-identical per-hart
// registers, retired counts and shared memory windows.
func TestSMPCorpus(t *testing.T)                { testCorpus(t, SMPLane) }
func TestSMPSweep(t *testing.T)                 { testSweep(t, SMPLane) }
func TestSMPGenerateDeterministic(t *testing.T) { testDeterministic(t, SMPLane) }
func TestSMPRunMatrixExecutes(t *testing.T)     { testMatrixExecutes(t, SMPLane) }
