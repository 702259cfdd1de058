package difftest

import "testing"

// The GA64 MMU-on/EL0 lane: generated EL0 programs running under guest
// translation through every engine, bit-identical.
func TestMMUCorpus(t *testing.T)                { testCorpus(t, MMULane) }
func TestMMUSweep(t *testing.T)                 { testSweep(t, MMULane) }
func TestMMUGenerateDeterministic(t *testing.T) { testDeterministic(t, MMULane) }
