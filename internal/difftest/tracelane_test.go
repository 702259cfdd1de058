package difftest

import "testing"

// The trace lane: the user and interrupt corpora replayed with a recorder
// attached to every engine, asserting identical comparable event streams
// (block entries, interrupt deliveries, guest exceptions) across the matrix
// and that tracing never perturbs final state. Interrupt deliveries and
// WFI are where event ordering is most at risk (injection boundaries,
// idle-skip, vectoring). Under -short a quarter of each corpus runs.
func TestTraceCorpus(t *testing.T)    { testCorpus(t, GA64Lane.Traced()) }
func TestTraceIRQCorpus(t *testing.T) { testCorpus(t, IRQLane.Traced()) }
