package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Layer names: this repo's modules, plus "bench" for the harness's
// own glue (input generation, validation, native reference kernels).
const (
	layerMinipy    = "minipy"
	layerDirective = "directive"
	layerTransform = "transform"
	layerCompile   = "compile"
	layerInterp    = "interp"
	layerRT        = "rt"
	layerMPI       = "mpi"
	layerServe     = "serve"
	layerBench     = "bench"
)

var allLayers = []string{layerMinipy, layerDirective, layerTransform, layerCompile,
	layerInterp, layerRT, layerMPI, layerServe, layerBench}

// span is one timed call into a layer's public function, recorded by
// the harness from outside. split, when set, divides the span's self
// time among layers (nanoseconds per layer, taken from the runtime's
// own attribution counters); the remainder stays with layer.
type span struct {
	Name   string
	Layer  string
	Start  int64 // ns since tracer start
	End    int64
	Parent int // index into spans, -1 for an op root
	Op     int // operation id shared by every span of one op
	TID    int // client / rank / 0
	// Outside marks a span that is written to the Chrome trace but
	// left out of the layer shares (serve-closed checks separation on
	// its short class only).
	Outside bool
	split   map[string]int64
}

// tracer keeps spans in memory until the run ends. With on == false
// begin returns -1 and every call is a no-op, so the untraced runs
// that produce the end-to-end numbers pay one branch per call site.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(layer, name string, parent, op, tid int) int {
	if !t.on {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: now, Parent: parent, Op: op, TID: tid})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a root span of duration d that has just ended.
func (t *tracer) add(layer, name string, d time.Duration, split map[string]int64) {
	if !t.on {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: now - int64(d), End: now,
		Parent: -1, Op: len(t.spans), split: split})
	t.mu.Unlock()
}

// setSplit attributes part of a span's self time to other layers.
func (t *tracer) setSplit(id int, split map[string]int64) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].split = split
	t.mu.Unlock()
}

func (t *tracer) exclude(id int) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Outside = true
	t.mu.Unlock()
}

// splitNamed is setSplit for the latest span of op called name.
func (t *tracer) splitNamed(op int, name string, split map[string]int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].Op == op && t.spans[i].Name == name {
			t.spans[i].split = split
			return
		}
	}
}

// stageSum is the total time and count of the spans sharing a name.
type stageSum struct {
	ns float64
	n  int
}

func (t *tracer) byName() map[string]stageSum {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]stageSum{}
	for _, s := range t.spans {
		if s.End > s.Start {
			st := out[s.Name]
			st.ns += float64(s.End - s.Start)
			st.n++
			out[s.Name] = st
		}
	}
	return out
}

// selfByLayer sums every span's self time (duration minus the part
// its children cover) per layer.
func (t *tracer) selfByLayer() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End > s.Start {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]int64{}
	for i, s := range t.spans {
		self := s.End - s.Start - child[i]
		if self <= 0 || s.Outside {
			continue
		}
		for layer, ns := range s.split {
			if ns > self {
				ns = self
			}
			if ns > 0 {
				out[layer] += ns
				self -= ns
			}
		}
		out[s.Layer] += self
	}
	return out
}

// layerShares turns selfByLayer into shares of the total op self time.
func (t *tracer) layerShares() map[string]float64 {
	self := t.selfByLayer()
	var total int64
	for _, ns := range self {
		total += ns
	}
	out := map[string]float64{}
	if total == 0 {
		return out
	}
	for l, ns := range self {
		out[l] = float64(ns) / float64(total)
	}
	return out
}

// writeChrome writes the spans as a Chrome trace_event file
// (chrome://tracing, Perfetto).
func (t *tracer) writeChrome(path string) error {
	type ev struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	t.mu.Lock()
	evs := make([]ev, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End <= s.Start {
			continue
		}
		e := ev{Name: s.Name, Cat: s.Layer, Ph: "X", TS: float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3, PID: 1, TID: s.TID,
			Args: map[string]any{"op": s.Op, "parent": s.Parent}}
		for l, ns := range s.split {
			e.Args["self_ns."+l] = ns
		}
		evs = append(evs, e)
	}
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
