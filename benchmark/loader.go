package main

import (
	"fmt"
	"io"
	"regexp"
	"sync/atomic"
	"time"

	"github.com/omp4go/omp4go/internal/bench"
	"github.com/omp4go/omp4go/internal/compile"
	"github.com/omp4go/omp4go/internal/graph"
	"github.com/omp4go/omp4go/internal/interp"
	"github.com/omp4go/omp4go/internal/minipy"
	"github.com/omp4go/omp4go/internal/pyomp"
	"github.com/omp4go/omp4go/internal/rt"
	"github.com/omp4go/omp4go/internal/textgen"
	"github.com/omp4go/omp4go/internal/transform"
)

// program is a loaded MiniPy module whose bench_main the harness
// calls; it keeps the interpreter so the runtime's public counters
// and profile can be read around each call.
type program struct {
	name string
	in   *interp.Interp
	glue *glueClock
}

// glueClock accumulates the time an op spends in the harness's own
// input modules (input generation, the native graph library), so the
// traced run can take it out of the executing layer's self time. The
// per-iteration graphlib.clustering call is only timed while tracing.
type glueClock struct {
	tr *tracer
	ns atomic.Int64
}

// loadProgram runs source text through the pipeline the way omp.Load
// and bench.Run do: parse, @omp transform, interpreter construction,
// compile.Install for the compiled modes, module top level. Each
// stage is a span under parent when tracing is on.
func loadProgram(e *env, parent, opID int, name, source string, mode bench.Mode, out io.Writer) (*program, error) {
	tr := e.tr
	s := tr.begin(layerMinipy, "minipy.Parse", parent, opID, 0)
	mod, err := minipy.Parse(source, name+".py")
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", name, err)
	}
	s = tr.begin(layerTransform, "transform.Module", parent, opID, 0)
	_, err = transform.Module(mod)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("transform %s: %w", name, err)
	}
	interpreted := mode == bench.Pure || mode == bench.Hybrid
	layer := rt.LayerAtomic
	if mode == bench.Pure {
		layer = rt.LayerMutex
	}
	if out == nil {
		out = io.Discard
	}
	s = tr.begin(layerInterp, "interp.New", parent, opID, 0)
	in := interp.New(interp.Options{
		Layer:          layer,
		ContendedAlloc: interpreted, // the paper's free-threading model, as bench.Run sets it
		Stdout:         out,
		Getenv:         func(string) string { return "" },
	})
	glue := &glueClock{tr: tr}
	installInputModules(in, glue)
	tr.end(s)
	if !interpreted {
		stage := "compile.Install"
		if mode == bench.CompiledDT {
			stage = "compile.Install(typed)"
		}
		s = tr.begin(layerCompile, stage, parent, opID, 0)
		err = compile.Install(in, mod, compile.Options{Typed: mode == bench.CompiledDT})
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", name, err)
		}
	}
	s = tr.begin(layerInterp, "interp.RunModule", parent, opID, 0)
	err = in.RunModule(mod)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", name, err)
	}
	return &program{name: name, in: in, glue: glue}, nil
}

// call runs bench_main(threads, args...) and returns its checksum.
func (p *program) call(threads int, args []int64) (float64, error) {
	vals := make([]interp.Value, 0, 1+len(args))
	vals = append(vals, int64(threads))
	for _, a := range args {
		vals = append(vals, a)
	}
	v, err := p.in.CallFunction("bench_main", vals...)
	if err != nil {
		return 0, err
	}
	sum, ok := interp.AsFloat(v)
	if !ok {
		return 0, fmt.Errorf("%s returned %s, want a number", p.name, interp.TypeName(v))
	}
	return sum, nil
}

func (p *program) close() { p.in.Runtime().Shutdown() }

// installInputModules registers the `bench` and `graphlib` builtin
// modules the registry sources import. internal/bench keeps its own
// copy unexported; this one calls the same public generators, and
// every op's checksum is validated against Benchmark.Reference, which
// consumes the same generators, so a drift between the two fails
// validation.
func installInputModules(in *interp.Interp, glue *glueClock) {
	ints := func(name string, want int, fn func(a []int64) interp.Value) (string, interp.Value) {
		return name, &interp.Builtin{Name: name, Fn: func(_ *interp.Thread, args []interp.Value) (interp.Value, error) {
			a := make([]int64, len(args))
			ok := len(args) == want
			for i := range args {
				var isInt bool
				a[i], isInt = interp.AsInt(args[i])
				ok = ok && isInt
			}
			if !ok {
				return nil, interp.NewPyError("TypeError", name+"(): invalid arguments", minipy.Position{})
			}
			t0 := time.Now()
			v := fn(a)
			glue.ns.Add(int64(time.Since(t0)))
			return v, nil
		}}
	}
	pair := func(x, y []float64) interp.Value {
		return &interp.Tuple{Elts: []interp.Value{interp.AdoptFloats(x), interp.AdoptFloats(y)}}
	}
	b := &interp.Module{Name: "bench", Attrs: map[string]interp.Value{}}
	add := func(name string, v interp.Value) { b.Attrs[name] = v }
	add(ints("fft_input", 2, func(a []int64) interp.Value { return pair(pyomp.FFTInput(int(a[0]), a[1])) }))
	add(ints("jacobi_input", 2, func(a []int64) interp.Value { return pair(pyomp.JacobiInput(int(a[0]), a[1])) }))
	add(ints("md_input", 2, func(a []int64) interp.Value { return pair(pyomp.MDInput(int(a[0]), a[1])) }))
	add(ints("lu_input", 2, func(a []int64) interp.Value { return interp.AdoptFloats(pyomp.LUInput(int(a[0]), a[1])) }))
	add(ints("qsort_input", 2, func(a []int64) interp.Value { return interp.AdoptFloats(pyomp.QsortInput(int(a[0]), a[1])) }))
	add(ints("maze_input", 2, func(a []int64) interp.Value { return interp.AdoptInts(pyomp.MazeInput(int(a[0]), a[1])) }))
	add(ints("corpus", 2, func(a []int64) interp.Value {
		c := textgen.Generate(textgen.Options{Lines: int(a[0]), Seed: a[1]})
		vals := make([]interp.Value, len(c.Lines))
		for i, l := range c.Lines {
			vals[i] = l
		}
		return interp.NewList(vals)
	}))
	in.RegisterModule(b)

	g := &interp.Module{Name: "graphlib", Attrs: map[string]interp.Value{}}
	name, v := ints("random_graph", 3, func(a []int64) interp.Value { return graph.Random(int(a[0]), int(a[1]), a[2]) })
	g.Attrs[name] = v
	g.Attrs["clustering"] = &interp.Builtin{Name: "clustering", Fn: func(_ *interp.Thread, args []interp.Value) (interp.Value, error) {
		if len(args) == 2 {
			gr, ok := args[0].(*graph.Graph)
			u, ok2 := interp.AsInt(args[1])
			if ok && ok2 {
				if !glue.tr.on {
					return gr.Clustering(int(u)), nil
				}
				t0 := time.Now()
				c := gr.Clustering(int(u))
				glue.ns.Add(int64(time.Since(t0)))
				return c, nil
			}
		}
		return nil, interp.NewPyError("TypeError", "clustering(): invalid arguments", minipy.Position{})
	}}
	in.RegisterModule(g)
}

// withSeed returns args with the trailing seed argument (present in
// every registry program but pi) replaced by the run's input seed.
func withSeed(name string, args []int64, seed int64) []int64 {
	out := append([]int64(nil), args...)
	if name != "pi" && len(out) > 0 {
		out[len(out)-1] = seed
	}
	return out
}

// checksumOK is the registry's validation rule: exact, or within the
// program's relative tolerance where reduction order differs.
func checksumOK(got, want, tol float64) bool {
	if got == want {
		return true
	}
	if tol == 0 {
		return false
	}
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	if want < 0 {
		want = -want
	}
	return diff <= tol*(1+want)
}

var directiveRe = regexp.MustCompile(`omp\("([^"]*)"\)`)

// directiveStrings extracts every directive string of a source text.
func directiveStrings(src string) []string {
	var out []string
	for _, m := range directiveRe.FindAllStringSubmatch(src, -1) {
		out = append(out, m[1])
	}
	return out
}
