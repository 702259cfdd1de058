package difftest

import (
	"encoding/binary"
	"fmt"
	"strings"

	"captive/internal/guest/port"
	"captive/internal/guest/rv64"
	"captive/internal/hvm"
	"captive/internal/machine"
	"captive/internal/metrics"
	"captive/internal/trace"
)

// Lane describes one differential-testing lane: how a seed becomes a
// program, the machine the program runs on, the state compared across the
// engine matrix, and the lane's committed corpus and sweep. Every lane is
// driven by the same runner (Run), matrix checker (Check, CheckProgram) and
// minimizer (Minimize); the golden configuration and the matrix are the
// package's Golden and Configs for every lane.
type Lane struct {
	Name     string
	Generate func(seed int64, ops int) (*Program, error)
	Port     port.Port
	Harts    int    // vCPUs of the machine; 0 means 1
	Org      uint64 // load and entry address of Program.Image
	Nop      uint32 // the minimizer's replacement word

	// Probes are the guest-physical windows compared byte for byte; they
	// are attached to hart 0's State.
	Probes [][2]uint64
	// Snapshot, when set, extends a hart's compared State after the run of
	// p on id (the RV64 system lanes add their CSRs).
	Snapshot func(id EngineID, p *Program, h machine.Hart, st *State)
	// CleanExit restricts minimizer candidates to programs the golden
	// model runs to exit code 0, which keeps reductions inside the
	// generator's contract of bounded, probed-window accesses.
	CleanExit bool
	// Post, when set, is checked on every configuration's run once its
	// state matched the golden one (the SMC lane asserts that the
	// invalidation machinery fired).
	Post func(id EngineID, out Outcome) error
	// Trace attaches a recorder for the comparable event kinds to every
	// run and compares the event streams too (the trace lane).
	Trace bool

	Corpus []Case // committed regression seeds, replayed in every mode
	Sweep  Sweep
}

// Case is one committed (seed, ops) pair of a lane's corpus.
type Case struct {
	Seed int64
	Ops  int
}

// Sweep parameterizes a lane's fresh-seed sweep: seed Base+i with
// 40+(i%5)*Step constructs, for i below N (Short under -short).
type Sweep struct {
	Base     int64
	N, Short int
	Step     int
}

// Traced returns the lane with a trace recorder attached to every run.
func (l *Lane) Traced() *Lane {
	c := *l
	c.Name += "/trace"
	c.Trace = true
	return &c
}

// Outcome is what one run of a program on one configuration produced.
type Outcome struct {
	States  []State          // one per hart; hart 0's carries the probes
	Metrics metrics.Snapshot // hart 0's engine counters
	Events  []trace.Event    // the comparable event stream (traced runs)
}

// Run executes p on one engine configuration.
func (l *Lane) Run(p *Program, id EngineID) (Outcome, error) { return l.run(p, id, l.Trace) }

func (l *Lane) run(p *Program, id EngineID, traced bool) (Outcome, error) {
	spec := machine.Spec{
		Config: hvm.Config{GuestRAMBytes: RAMBytes, CodeCacheBytes: 4 << 20, PTPoolBytes: 2 << 20, VCPUs: l.Harts},
		Port:   l.Port, Engine: id.Name, Level: id.Level,
	}
	var events *trace.Capture
	if traced {
		events = &trace.Capture{}
		spec.Trace = trace.NewRecorder(events, trace.ComparableKinds)
	}
	m, err := machine.New(spec)
	if err != nil {
		return Outcome{}, err
	}
	if p.Handler != nil {
		if err := m.LoadData(p.Handler, HandlerBase); err != nil {
			return Outcome{}, err
		}
	}
	if err := m.Load(p.Image, l.Org, l.Org); err != nil {
		return Outcome{}, err
	}
	if err := m.Run(stepLimit, cycleBudget); err != nil {
		return Outcome{}, fmt.Errorf("%s: %w", id, err)
	}
	if !m.Halted() {
		return Outcome{}, fmt.Errorf("%s: did not halt", id)
	}
	_, rv := l.Port.(rv64.Port)
	out := Outcome{Metrics: m.Hart(0).Metrics()}
	for i := 0; i < m.Harts(); i++ {
		h := m.Hart(i)
		_, code := h.Halted()
		st := State{RV64: rv, Regs: h.RegState(), Instrs: h.GuestInstrs(), ExitCode: code}
		if l.Snapshot != nil {
			l.Snapshot(id, p, h, &st)
		}
		out.States = append(out.States, st)
	}
	for _, w := range l.Probes {
		buf := make([]byte, w[1]-w[0])
		if err := m.ReadRAM(w[0], buf); err != nil {
			return Outcome{}, err
		}
		out.States[0].Data = append(out.States[0].Data, buf...)
	}
	if events != nil {
		out.Events = events.Events
	}
	return out, nil
}

// Check generates the lane's program for a seed and checks it.
func (l *Lane) Check(seed int64, ops int) error {
	p, err := l.Generate(seed, ops)
	if err != nil {
		return fmt.Errorf("difftest: %s seed %d: generate: %w", l.Name, seed, err)
	}
	_, err = l.CheckProgram(p)
	return err
}

// CheckProgram runs p through the engine matrix and compares every
// configuration against the golden interpreter, returning the golden
// per-hart states. A divergence is returned as a *Mismatch carrying the
// minimized program. A traced lane also requires every configuration's
// event stream to equal the golden one, and tracing never to perturb the
// golden state.
func (l *Lane) CheckProgram(p *Program) ([]State, error) {
	fail := func(err error) error { return fmt.Errorf("difftest: %s seed %d: %w", l.Name, p.Seed, err) }
	golden, err := l.run(p, Golden, false)
	if err != nil {
		return nil, fail(fmt.Errorf("golden run: %w", err))
	}
	if l.Trace {
		traced, err := l.run(p, Golden, true)
		if err != nil {
			return nil, fail(fmt.Errorf("traced golden run: %w", err))
		}
		if !statesEqual(golden.States, traced.States) {
			return nil, fail(fmt.Errorf("tracing perturbed the golden run: %s", statesDiff(golden.States, traced.States)))
		}
		golden.Events = traced.Events
	}
	for _, id := range Configs() {
		out, err := l.Run(p, id)
		if err != nil {
			return nil, fail(err)
		}
		if !statesEqual(golden.States, out.States) {
			return nil, &Mismatch{Lane: l, Seed: p.Seed, ID: id,
				Detail: statesDiff(golden.States, out.States), Minimized: l.Minimize(p, id)}
		}
		if d := DiffEvents(golden.Events, out.Events); d != "" {
			return nil, fail(fmt.Errorf("%s event stream diverges from %s: %s", id, Golden, d))
		}
		if l.Post != nil {
			if err := l.Post(id, out); err != nil {
				return nil, fail(fmt.Errorf("%s: %w", id, err))
			}
		}
	}
	return golden.States, nil
}

// statesEqual reports whether two per-hart state slices are bit-identical.
func statesEqual(a, b []State) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// statesDiff describes the first per-hart difference.
func statesDiff(a, b []State) string {
	for i := range a {
		if i < len(b) && !a[i].Equal(b[i]) {
			if len(a) == 1 {
				return a[i].Diff(b[i])
			}
			return fmt.Sprintf("hart %d: %s", i, a[i].Diff(b[i]))
		}
	}
	return fmt.Sprintf("%d vs %d harts", len(a), len(b))
}

// DiffEvents describes the first difference between two ordered event
// streams ("" when identical).
func DiffEvents(golden, got []trace.Event) string {
	n := min(len(golden), len(got))
	for i := 0; i < n; i++ {
		if golden[i] != got[i] {
			return fmt.Sprintf("event %d: golden %s vs %s", i, golden[i], got[i])
		}
	}
	if len(golden) != len(got) {
		return fmt.Sprintf("stream length %d vs %d (first %d events agree)", len(golden), len(got), n)
	}
	return ""
}

// Minimize shrinks a program that diverges on id by replacing instruction
// words with the lane's NOP while the divergence persists, looping to a
// fixpoint. Replacing rather than deleting keeps branch displacements, so
// every candidate stays a well-formed program. Candidates must still run
// cleanly on the golden model (to exit 0, with CleanExit). A program that
// does not diverge comes back unreduced.
func (l *Lane) Minimize(p *Program, id EngineID) []uint32 {
	words := make([]uint32, len(p.Image)/4)
	for i := range words {
		words[i] = binary.LittleEndian.Uint32(p.Image[4*i:])
	}
	return minimizeWords(words, l.Nop, func(ws []uint32) bool {
		img := make([]byte, 4*len(ws))
		for i, w := range ws {
			binary.LittleEndian.PutUint32(img[4*i:], w)
		}
		cand := &Program{Seed: p.Seed, Image: img, Handler: p.Handler}
		g, err := l.run(cand, Golden, false)
		if err != nil || l.CleanExit && g.States[0].ExitCode != 0 {
			return false
		}
		out, err := l.run(cand, id, false)
		return err == nil && !statesEqual(g.States, out.States)
	})
}

// minimizeWords is the reduction core: greedily replace words with nop
// while stillFails keeps reporting failure, looping to a fixpoint.
func minimizeWords(words []uint32, nop uint32, stillFails func([]uint32) bool) []uint32 {
	if !stillFails(words) {
		return words // not reproducible under re-run; return unreduced
	}
	for changed := true; changed; {
		changed = false
		for i := range words {
			if words[i] == nop {
				continue
			}
			save := words[i]
			words[i] = nop
			if stillFails(words) {
				changed = true
			} else {
				words[i] = save
			}
		}
	}
	return words
}

// Mismatch describes a differential failure, including the minimized
// reproducer.
type Mismatch struct {
	Lane      *Lane
	Seed      int64
	ID        EngineID
	Detail    string
	Minimized []uint32 // minimized instruction words of the main image
}

// Error implements error. The listing shows the live (non-NOP) words of
// the minimized image at their guest addresses.
func (m *Mismatch) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "difftest: %s seed %d: %s diverges from %s: %s\n", m.Lane.Name, m.Seed, m.ID, Golden, m.Detail)
	fmt.Fprintf(&sb, "minimized program (%d live words):\n", countLive(m.Minimized, m.Lane.Nop))
	for i, w := range m.Minimized {
		if w != m.Lane.Nop {
			fmt.Fprintf(&sb, "  %#06x: %#08x\n", m.Lane.Org+uint64(4*i), w)
		}
	}
	return sb.String()
}

func countLive(words []uint32, nop uint32) int {
	n := 0
	for _, w := range words {
		if w != nop {
			n++
		}
	}
	return n
}
