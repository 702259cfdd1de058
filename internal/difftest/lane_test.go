package difftest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	gasm "captive/internal/guest/ga64/asm"
	"captive/internal/guest/rv64/asm"
	"captive/internal/machine"
	"captive/internal/ssa"
)

// sweepShardCount is how many parallel subtests each differential sweep is
// split into. Seeds are strided across shards, so the set of seeds checked
// is identical to the sequential loop; every check builds its own
// machines, so shards share nothing but the (immutable, once-built) guest
// modules. Determinism is per seed, not per schedule — a failure always
// reproduces with the same seed standalone.
const sweepShardCount = 8

// sweepShards runs check(i) for every i in [0, n), sharded across parallel
// subtests.
func sweepShards(t *testing.T, n int, check func(i int) error) {
	t.Helper()
	for s := 0; s < sweepShardCount; s++ {
		s := s
		t.Run(fmt.Sprintf("shard%d", s), func(t *testing.T) {
			t.Parallel()
			for i := s; i < n; i += sweepShardCount {
				if err := check(i); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// testCorpus replays a lane's committed corpus on every engine
// configuration, including under -short. A traced lane replays a quarter of
// it under -short.
func testCorpus(t *testing.T, l *Lane) {
	for i, c := range l.Corpus {
		if l.Trace && testing.Short() && i%4 != 0 {
			continue
		}
		if err := l.Check(c.Seed, c.Ops); err != nil {
			t.Errorf("%s corpus seed %d (ops %d):\n%v", l.Name, c.Seed, c.Ops, err)
		}
	}
}

// testSweep runs a lane's fresh-seed sweep, sharded across parallel
// subtests; -short runs the lane's smaller count.
func testSweep(t *testing.T, l *Lane) {
	n := l.Sweep.N
	if testing.Short() {
		n = l.Sweep.Short
	}
	sweepShards(t, n, func(i int) error {
		seed, ops := l.Sweep.Base+int64(i), 40+i%5*l.Sweep.Step
		if err := l.Check(seed, ops); err != nil {
			return fmt.Errorf("%s sweep seed %d (ops %d):\n%w", l.Name, seed, ops, err)
		}
		return nil
	})
}

// testDeterministic pins a lane's generation to the seed: the same seed
// must produce the same image and handler byte for byte, or the corpus
// stops being a corpus, and another seed a different image.
func testDeterministic(t *testing.T, l *Lane) {
	a, err := l.Generate(42, 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.Generate(42, 100)
	if err != nil {
		t.Fatal(err)
	}
	if string(a.Image) != string(b.Image) || string(a.Handler) != string(b.Handler) {
		t.Fatalf("%s generation is not deterministic", l.Name)
	}
	c, err := l.Generate(43, 100)
	if err != nil {
		t.Fatal(err)
	}
	if string(a.Image) == string(c.Image) {
		t.Fatalf("%s: different seeds produced identical programs", l.Name)
	}
}

// testMatrixExecutes sanity-checks that each engine configuration actually
// executes a lane program: every hart retires instructions and exits 0.
func testMatrixExecutes(t *testing.T, l *Lane) {
	p, err := l.Generate(7, 60)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range append([]EngineID{Golden}, Configs()...) {
		out, err := l.Run(p, id)
		if err != nil {
			t.Fatalf("%s %s: %v", l.Name, id, err)
		}
		if len(out.States) != max(l.Harts, 1) {
			t.Fatalf("%s %s: %d hart states, want %d", l.Name, id, len(out.States), max(l.Harts, 1))
		}
		for h, st := range out.States {
			if st.Instrs == 0 || st.ExitCode != 0 {
				t.Errorf("%s %s: hart %d retired %d instructions, exit code %d", l.Name, id, h, st.Instrs, st.ExitCode)
			}
		}
	}
}

// checkDirected runs a handcrafted program across a lane's matrix,
// requires bit-identical state everywhere and returns the golden per-hart
// states for scenario assertions.
func checkDirected(t *testing.T, l *Lane, p *Program) []State {
	t.Helper()
	golden, err := l.CheckProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	return golden
}

// assembler is either guest's assembler program.
type assembler interface{ Assemble() ([]byte, error) }

// checkAsm assembles a directed program, and its GA64 handler image when h
// is non-nil, and checks it on the lane like checkDirected.
func checkAsm(t *testing.T, l *Lane, p, h assembler) []State {
	t.Helper()
	img, err := p.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	prog := &Program{Image: img}
	if h != nil {
		if prog.Handler, err = h.Assemble(); err != nil {
			t.Fatal(err)
		}
	}
	return checkDirected(t, l, prog)
}

// TestDivergenceMinimized drives a real mismatch through check, minimize
// and Mismatch.Error: a copy of a lane whose snapshot of one non-golden
// configuration is perturbed whenever a marker word is in the image. The
// mismatch must name that configuration, its minimized program must keep
// the marker, and the listing must use the lane's NOP and origin.
func TestDivergenceMinimized(t *testing.T) {
	ga := gasm.New(Org)
	ga.MovI(2, 40)
	ga.MovI(3, 2)
	ga.Add(4, 2, 3)
	gaAt := ga.PC()
	ga.Movz(9, 0x1234, 0)
	ga.AddI(5, 4, 7)
	ga.Hlt(0)
	gaImg, err := ga.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	rv := asm.New(RVOrg)
	rv.Li(11, 40)
	rv.Li(12, 2)
	rv.Add(13, 11, 12)
	rvAt := rv.PC()
	rv.Addi(9, asm.X0, 0x123)
	rv.Addi(14, 13, 7)
	rv.Ecall()
	rvImg, err := rv.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		lane *Lane
		img  []byte
		at   uint64
		bad  EngineID
	}{
		{GA64Lane, gaImg, gaAt - Org, EngineID{Name: "qemu", Level: ssa.O4}},
		{RV64Lane, rvImg, rvAt - RVOrg, EngineID{Name: "captive", Level: ssa.O2}},
	} {
		marker := binary.LittleEndian.Uint32(tc.img[tc.at:])
		l := *tc.lane
		l.Snapshot = func(id EngineID, p *Program, _ machine.Hart, st *State) {
			for i := 0; i+4 <= len(p.Image); i += 4 {
				if id == tc.bad && binary.LittleEndian.Uint32(p.Image[i:]) == marker {
					st.Instrs++
				}
			}
		}
		_, err := l.CheckProgram(&Program{Seed: 9, Image: tc.img})
		var mm *Mismatch
		if !errors.As(err, &mm) {
			t.Fatalf("%s: want a *Mismatch, got %v", l.Name, err)
		}
		if mm.ID != tc.bad || !strings.Contains(mm.Error(), tc.bad.String()+" diverges") {
			t.Errorf("%s: mismatch names %s, want %s:\n%s", l.Name, mm.ID, tc.bad, mm)
		}
		if mm.Minimized[tc.at/4] != marker {
			t.Errorf("%s: minimized program lost the marker %#x: %#x", l.Name, marker, mm.Minimized)
		}
		if live := countLive(mm.Minimized, l.Nop); live == 0 || live >= len(mm.Minimized) {
			t.Errorf("%s: minimizer kept %d of %d words", l.Name, live, len(mm.Minimized))
		}
		listing := mm.Error()
		if want := fmt.Sprintf("  %#06x: %#08x\n", l.Org+tc.at, marker); !strings.Contains(listing, want) {
			t.Errorf("%s: listing lacks %q:\n%s", l.Name, want, listing)
		}
		if strings.Contains(listing, fmt.Sprintf(": %#08x\n", l.Nop)) {
			t.Errorf("%s: listing shows the lane's NOP %#x:\n%s", l.Name, l.Nop, listing)
		}
	}
}

// TestMinimizeShrinks drives the NOP-replacement reduction loop with a
// synthetic failure predicate: the "bug" triggers whenever two specific
// marker words are both present. The minimizer must NOP out everything
// else and keep exactly the two markers.
func TestMinimizeShrinks(t *testing.T) {
	const markerA, markerB = 0xAAAA0001, 0xBBBB0002
	words := make([]uint32, 64)
	for i := range words {
		words[i] = 0x11110000 + uint32(i) // irrelevant filler
	}
	words[13] = markerA
	words[47] = markerB
	stillFails := func(ws []uint32) bool {
		var a, b bool
		for _, w := range ws {
			a = a || w == markerA
			b = b || w == markerB
		}
		return a && b
	}
	out := minimizeWords(words, nopWord, stillFails)
	if len(out) != 64 {
		t.Fatalf("minimizer changed program length: %d", len(out))
	}
	if countLive(out, nopWord) != 2 || out[13] != markerA || out[47] != markerB {
		t.Fatalf("minimizer kept %d live words (want exactly the 2 markers): %#x", countLive(out, nopWord), out)
	}
}

// TestMinimizeKeepsNonFailing verifies the guard path: a program that does
// not diverge comes back byte-identical (no spurious reduction of an
// unreproducible report).
func TestMinimizeKeepsNonFailing(t *testing.T) {
	p, err := Generate(99, 80)
	if err != nil {
		t.Fatal(err)
	}
	words := GA64Lane.Minimize(p, EngineID{Name: "captive", Level: ssa.O4})
	if len(words) != len(p.Image)/4 {
		t.Fatalf("minimizer changed program length: %d words vs %d", len(words), len(p.Image)/4)
	}
	for i, w := range words {
		if binary.LittleEndian.Uint32(p.Image[4*i:]) != w {
			t.Fatal("minimizer mutated a non-failing program")
		}
	}
}
