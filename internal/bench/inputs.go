// Package bench implements the paper's evaluation: the nine
// benchmark programs as MiniPy sources (run through every OMP4Py
// execution mode), workload generators, the PyOMP baseline dispatch,
// sequential reference validation, and the timing harness behind
// every figure and table.
package bench

import (
	"github.com/omp4go/omp4go/internal/graph"
	"github.com/omp4go/omp4go/internal/interp"
	"github.com/omp4go/omp4go/internal/minipy"
	"github.com/omp4go/omp4go/internal/pyomp"
	"github.com/omp4go/omp4go/internal/textgen"
)

// installInputModules registers the bench and graphlib builtin
// modules: the benchmark inputs are generated natively from fixed
// seeds (the artifact's "synthetic data generated from a fixed
// seed"), exactly matching the bits the reference implementations
// consume, and graphlib plays the role NetworkX plays in §IV-B.
func installInputModules(in *interp.Interp) {
	argErr := func(fn string) error {
		return interp.NewPyError("TypeError", fn+"(): invalid arguments", minipy.Position{})
	}
	// ints declares a function of n int arguments.
	ints := func(name string, n int, fn func(a []int64) interp.Value) *interp.Builtin {
		return &interp.Builtin{Name: name, Sig: interp.Args(n, n), Fn: func(th *interp.Thread, args []interp.Value) (interp.Value, error) {
			a := make([]int64, n)
			for i := range a {
				var ok bool
				if a[i], ok = interp.AsInt(args[i]); !ok {
					return nil, argErr(name)
				}
			}
			return fn(a), nil
		}}
	}
	pair := func(x, y []float64) interp.Value {
		return &interp.Tuple{Elts: []interp.Value{interp.AdoptFloats(x), interp.AdoptFloats(y)}}
	}
	in.RegisterModule(interp.NewModule("bench",
		ints("fft_input", 2, func(a []int64) interp.Value { return pair(pyomp.FFTInput(int(a[0]), a[1])) }),
		ints("jacobi_input", 2, func(a []int64) interp.Value { return pair(pyomp.JacobiInput(int(a[0]), a[1])) }),
		ints("lu_input", 2, func(a []int64) interp.Value { return interp.AdoptFloats(pyomp.LUInput(int(a[0]), a[1])) }),
		ints("md_input", 2, func(a []int64) interp.Value { return pair(pyomp.MDInput(int(a[0]), a[1])) }),
		ints("qsort_input", 2, func(a []int64) interp.Value { return interp.AdoptFloats(pyomp.QsortInput(int(a[0]), a[1])) }),
		ints("maze_input", 2, func(a []int64) interp.Value { return interp.AdoptInts(pyomp.MazeInput(int(a[0]), a[1])) }),
		ints("corpus", 2, func(a []int64) interp.Value {
			c := textgen.Generate(textgen.Options{Lines: int(a[0]), Seed: a[1]})
			vals := make([]interp.Value, len(c.Lines))
			for i, l := range c.Lines {
				vals[i] = l
			}
			return interp.NewList(vals)
		}),
	))

	// The graph queries run once per node in the graphic benchmark, so
	// each unpacks its own arguments.
	in.RegisterModule(interp.NewModule("graphlib",
		ints("random_graph", 3, func(a []int64) interp.Value { return graph.Random(int(a[0]), int(a[1]), a[2]) }),
		&interp.Builtin{Name: "clustering", Sig: interp.Args(2, 2), Fn: func(th *interp.Thread, args []interp.Value) (interp.Value, error) {
			g, ok := args[0].(*graph.Graph)
			u, ok2 := interp.AsInt(args[1])
			if !ok || !ok2 {
				return nil, argErr("clustering")
			}
			return g.Clustering(int(u)), nil
		}},
		&interp.Builtin{Name: "number_of_nodes", Sig: interp.Args(1, 1), Fn: func(th *interp.Thread, args []interp.Value) (interp.Value, error) {
			g, ok := args[0].(*graph.Graph)
			if !ok {
				return nil, argErr("number_of_nodes")
			}
			return int64(g.N()), nil
		}},
		&interp.Builtin{Name: "degree", Sig: interp.Args(2, 2), Fn: func(th *interp.Thread, args []interp.Value) (interp.Value, error) {
			g, ok := args[0].(*graph.Graph)
			u, ok2 := interp.AsInt(args[1])
			if !ok || !ok2 {
				return nil, argErr("degree")
			}
			return int64(g.Degree(int(u))), nil
		}},
		&interp.Builtin{Name: "neighbors", Sig: interp.Args(2, 2), Fn: func(th *interp.Thread, args []interp.Value) (interp.Value, error) {
			g, ok := args[0].(*graph.Graph)
			u, ok2 := interp.AsInt(args[1])
			if !ok || !ok2 {
				return nil, argErr("neighbors")
			}
			ns := g.Neighbors(int(u))
			out := make([]int64, len(ns))
			for i, v := range ns {
				out[i] = int64(v)
			}
			return interp.AdoptInts(out), nil
		}},
		&interp.Builtin{Name: "has_edge", Sig: interp.Args(3, 3), Fn: func(th *interp.Thread, args []interp.Value) (interp.Value, error) {
			g, ok := args[0].(*graph.Graph)
			u, ok2 := interp.AsInt(args[1])
			v, ok3 := interp.AsInt(args[2])
			if !ok || !ok2 || !ok3 {
				return nil, argErr("has_edge")
			}
			return g.HasEdge(int(u), int(v)), nil
		}},
	))
}
