package main

import (
	"fmt"
	"time"

	"github.com/omp4go/omp4go/internal/bench"
	"github.com/omp4go/omp4go/internal/directive"
	"github.com/omp4go/omp4go/internal/interp"
	"github.com/omp4go/omp4go/internal/minipy"
)

// Generated module sizes (functions per module).
var genSizes = []int{50, 200, 800}

// Tiny arguments for the registry programs' probe call: the load is
// what is timed; the probe only proves the loaded module computes.
var probeArgs = map[string][]int64{
	"fft":       {64, 0},
	"jacobi":    {16, 2, 0},
	"lu":        {12, 0},
	"md":        {8, 1, 0},
	"pi":        {1000},
	"qsort":     {2000, 0},
	"bfs":       {9, 0},
	"graphic":   {60, 6, 0},
	"wordcount": {40, 0},
	"wavefront": {6, 0},
}

// coldSource is one source text with the probe that validates a load
// of it.
type coldSource struct {
	name   string
	source string
	probe  func(p *program, threads int) error

	directives []string
	dirNS      int64 // time to directive.Parse every directive once
}

type coldLoad struct {
	sources []*coldSource
	cells   []coldCell
}

type coldCell struct {
	row  *row
	src  *coldSource
	mode bench.Mode
}

func newColdLoad() *coldLoad { return &coldLoad{} }

func (w *coldLoad) setup(e *env) error {
	w.sources, w.cells = nil, nil
	for _, name := range bench.Names {
		b := bench.Registry[name]
		args := withSeed(name, probeArgs[name], e.seed)
		want := b.Reference(args)
		tol := b.Tolerance
		w.sources = append(w.sources, &coldSource{name: name, source: b.Source,
			probe: func(p *program, threads int) error {
				got, err := p.call(threads, args)
				if err == nil && !checksumOK(got, want, tol) {
					err = fmt.Errorf("probe checksum %v, reference %v", got, want)
				}
				return err
			}})
	}
	for i, n := range genSizes {
		g := generateModule(fmt.Sprintf("gen%d", n), n, e.seed*31+int64(i))
		w.sources = append(w.sources, &coldSource{name: g.name, source: g.source,
			probe: func(p *program, threads int) error {
				v, err := p.in.CallFunction("probe", int64(threads))
				if err != nil {
					return err
				}
				got, ok := interp.AsInt(v)
				if want := g.expect(int64(threads)); !ok || got != want {
					return fmt.Errorf("probe returned %v, want %d", v, want)
				}
				return nil
			}})
	}
	for _, s := range w.sources {
		s.directives = directiveStrings(s.source)
		for _, m := range []bench.Mode{bench.Hybrid, bench.CompiledDT} {
			c := coldCell{row: e.row(s.name+"/"+m.String(), true), src: s, mode: m}
			w.cells = append(w.cells, c)
			if _, err := w.load(e, c, 0); err != nil { // warm-up
				return fmt.Errorf("warm-up %s: %w", c.row.name, err)
			}
		}
	}
	return nil
}

func (w *coldLoad) close() {}

func (w *coldLoad) measure(e *env, deadline time.Time) {
	ops := make([]op, len(w.cells))
	for i, c := range w.cells {
		c := c
		ops[i] = op{row: c.row, run: func(id int) (time.Duration, error) { return w.load(e, c, id) }}
	}
	rotate(e, ops, deadline)
}

// load performs one op: source text to callable is timed; the probe
// call that follows validates it and is not.
func (w *coldLoad) load(e *env, c coldCell, opID int) (time.Duration, error) {
	root := e.tr.begin(layerBench, "op:"+c.row.name, -1, opID, 0)
	t0 := time.Now()
	p, err := loadProgram(e, root, opID, c.src.name, c.src.source, c.mode, nil)
	d := time.Since(t0)
	e.tr.end(root)
	if err != nil {
		return d, err
	}
	if e.tr.on {
		// transform.Module parses the directives itself; take the time
		// directive.Parse needs for them out of its self time.
		w.splitDirectives(e, c.src, opID)
	}
	err = c.src.probe(p, e.n)
	p.close()
	return d, err
}

func (w *coldLoad) splitDirectives(e *env, s *coldSource, opID int) {
	if s.dirNS == 0 && len(s.directives) > 0 {
		s.dirNS = int64(medianOf(5, func() {
			for _, d := range s.directives {
				_, _ = directive.Parse(d) // only timed; transform reports errors
			}
		}))
	}
	e.tr.splitNamed(opID, "transform.Module", map[string]int64{layerDirective: s.dirNS})
}

// medianOf times fn reps times and returns the median in ns.
func medianOf(reps int, fn func()) float64 {
	ns := make([]float64, reps)
	for i := range ns {
		t0 := time.Now()
		fn()
		ns[i] = float64(time.Since(t0))
	}
	return median(ns)
}

// layers takes the stage costs: lexing and directive parsing by
// calling them directly, the rest from the stage spans of the traced
// loads (plus one traced pass in Compiled mode for the untyped
// compile.Install).
func (w *coldLoad) layers(e *env) {
	const reps = 5
	var lexNS, tokens, dirNS, dirs float64
	for _, s := range w.sources {
		var toks []minipy.Token
		lexNS += medianOf(reps, func() { toks, _ = minipy.Lex(s.source) })
		tokens += float64(len(toks))
		dirNS += medianOf(reps, func() {
			for _, d := range s.directives {
				_, _ = directive.Parse(d)
			}
		})
		dirs += float64(len(s.directives))
	}
	e.tr.on = true
	for _, s := range w.sources {
		c := coldCell{row: e.row(s.name+"/Compiled", false), src: s, mode: bench.Compiled}
		d, err := w.load(e, c, e.opID())
		e.record(c.row, d, err)
	}
	e.tr.on = false

	stage := e.tr.byName()
	perLoad := func(name string) float64 { // mean ns of one stage over one pass of the 13 sources
		if st := stage[name]; st.n > 0 {
			return st.ns / float64(st.n) * float64(len(w.sources))
		}
		return 0
	}
	nsrc := float64(len(w.sources))
	if tokens > 0 {
		e.layer["minipy.tokens"] = tokens
		e.layer["minipy.lex_ns_per_token"] = lexNS / tokens
		e.layer["minipy.parse_ns_per_token"] = (perLoad("minipy.Parse") - lexNS) / tokens
	}
	if dirs > 0 {
		e.layer["directive.count"] = dirs
		e.layer["directive.parse_ns"] = dirNS / dirs
		e.layer["transform.us_per_directive"] = (perLoad("transform.Module") - dirNS) / dirs / 1e3
	}
	e.layer["transform.module_us"] = perLoad("transform.Module") / nsrc / 1e3
	e.layer["compile.install_us"] = perLoad("compile.Install") / nsrc / 1e3
	e.layer["compile.install_dt_us"] = perLoad("compile.Install(typed)") / nsrc / 1e3
	e.layer["interp.run_module_us"] = perLoad("interp.RunModule") / nsrc / 1e3
}
