package main

// Spans recorded around the calls into each layer. They stay in memory until
// the run ends, when the traced run prints its self-time table from them.

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one call into a layer.
type span struct {
	ID       int
	Parent   int // -1 for a pass root
	Layer    string
	Workload string
	Pass     int
	Machine  int
	Engine   string
	StartNS  int64 // since the run started
	EndNS    int64
}

// tracer times every call; it records spans only while on.
type tracer struct {
	on       bool
	t0       time.Time
	workload string
	pass     int
	spans    []span
}

// handle ends a timed call.
type handle struct {
	t     *tracer
	id    int // -1 when not recorded
	start time.Time
}

func (t *tracer) begin(layer, engine string, machine, parent int) handle {
	h := handle{t: t, id: -1, start: time.Now()}
	if t.on {
		h.id = len(t.spans)
		t.spans = append(t.spans, span{ID: h.id, Parent: parent, Layer: layer, Workload: t.workload,
			Pass: t.pass, Machine: machine, Engine: engine, StartNS: int64(h.start.Sub(t.t0))})
	}
	return h
}

// end closes the span and returns the call's duration.
func (h handle) end() time.Duration {
	now := time.Now()
	if h.id >= 0 {
		h.t.spans[h.id].EndNS = int64(now.Sub(h.t.t0))
	}
	return now.Sub(h.start)
}

// child records a span of known duration inside parent that the benchmark
// cannot time from outside: the engine's own JIT nanoseconds inside Run, or
// the flush estimate. It is placed at the parent's start.
func (t *tracer) child(layer, engine string, machine int, parent handle, d time.Duration) {
	if !t.on || parent.id < 0 || d <= 0 {
		return
	}
	s := t.spans[parent.id].StartNS
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent.id, Layer: layer, Workload: t.workload,
		Pass: t.pass, Machine: machine, Engine: engine, StartNS: s, EndNS: s + int64(d)})
}

// layerTime is one row of the self-time table.
type layerTime struct {
	layer       string
	calls       int
	total, self time.Duration
}

// selfTimes sums, per layer, the duration and self time (duration minus the
// part its children cover) of every span. A pass root's self time is the
// wall clock no layer span covers.
func selfTimes(spans []span) map[string]*layerTime {
	covered := map[int]int64{} // span ID → duration its children cover
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.EndNS - s.StartNS
		}
	}
	rows := map[string]*layerTime{}
	for _, s := range spans {
		lt := rows[s.Layer]
		if lt == nil {
			lt = &layerTime{layer: s.Layer}
			rows[s.Layer] = lt
		}
		d := s.EndNS - s.StartNS
		lt.calls++
		lt.total += time.Duration(d)
		lt.self += time.Duration(max(0, d-covered[s.ID]))
	}
	return rows
}

// printSelfTimes renders the table, largest self time first, and returns
// the layer with the largest self time other than the uncovered remainder.
func printSelfTimes(w io.Writer, rows map[string]*layerTime) string {
	var all []*layerTime
	var wall time.Duration
	for _, lt := range rows {
		all = append(all, lt)
		if lt.layer == "pass" {
			wall = lt.total
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].self > all[j].self })
	fmt.Fprintf(w, "self time by layer over the traced passes (wall %.1f ms):\n", ms(wall))
	fmt.Fprintf(w, "  %-14s %7s %12s %12s %7s\n", "layer", "calls", "total ms", "self ms", "self %")
	top := ""
	for _, lt := range all {
		name := lt.layer
		if name == "pass" {
			name = "(uncovered)"
		} else if top == "" {
			top = lt.layer
		}
		fmt.Fprintf(w, "  %-14s %7d %12.2f %12.2f %6.1f%%\n", name, lt.calls, ms(lt.total), ms(lt.self),
			100*float64(lt.self)/float64(max(wall, 1)))
	}
	return top
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
