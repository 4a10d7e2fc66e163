package interp

import (
	"errors"
	"hash/fnv"
	"io"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"github.com/omp4go/omp4go/internal/minipy"
	"github.com/omp4go/omp4go/internal/ompabi"
)

// callDeadline bounds one fuzzed call; none of the callables blocks on
// its own, outside the exclusions below.
const callDeadline = 5 * time.Second

// FuzzCallBuiltin calls one Go-implemented callable reachable from
// MiniPy, a global or a function of the omp4py, __omp, math, time or
// random module, with a fuzzed argument list in a fresh interpreter.
// The property: the call returns a value or a typed MiniPy error within
// callDeadline, and never panics. target names the callable
// ("math.floor", "len"); any other string picks one by its hash, so
// every callable stays reachable from mutated input. args is the
// argument list as MiniPy literals: None, bools, ints, floats, strs,
// and tuples and lists of them.
func FuzzCallBuiltin(f *testing.F) {
	f.Fuzz(func(t *testing.T, target, args string) {
		vals, ok := literalArgs(args)
		if !ok {
			t.Skip("not a list of literals")
		}
		in := New(Options{Stdout: io.Discard, Getenv: func(string) string { return "" }})
		name, fn := callableFor(in, target)
		if why := excluded(name, vals); why != "" {
			t.Skip(why)
		}
		type result struct {
			err      error
			panicked any
			stack    []byte
		}
		done := make(chan result, 1)
		go func() {
			var r result
			defer func() {
				if r.panicked = recover(); r.panicked != nil {
					r.stack = debug.Stack()
				}
				done <- r
			}()
			th := in.MainThread()
			defer th.Release()
			_, r.err = th.Call(fn, vals, minipy.Position{Line: 1})
		}()
		select {
		case r := <-done:
			var pe *PyError
			switch {
			case r.panicked != nil:
				t.Fatalf("%s(%s) panicked: %v\n%s", name, args, r.panicked, r.stack)
			case r.err != nil && !errors.As(r.err, &pe):
				t.Fatalf("%s(%s) returned the untyped error %v", name, args, r.err)
			}
		case <-time.After(callDeadline):
			t.Fatalf("%s(%s) did not return within %v", name, args, callDeadline)
		}
	})
}

// excluded names the calls the property does not cover, and why.
func excluded(name string, args []Value) string {
	if len(args) == 0 {
		return ""
	}
	if f, ok := asFloat(args[0]); ok && name == "time.sleep" && f > 0.01 {
		return "time.sleep blocks for as long as it is asked to, by design"
	}
	return ""
}

// callableFor resolves target among the interpreter's Go-implemented
// callables, or picks one by the hash of target.
func callableFor(in *Interp, target string) (string, *Builtin) {
	fns := map[string]*Builtin{}
	for name, c := range in.globals.vars {
		if b, ok := c.v.(*Builtin); ok {
			fns[name] = b
		}
	}
	for _, mod := range []string{"omp4py", ompabi.Module, "math", "time", "random"} {
		for name, v := range in.modules[mod].Attrs {
			if b, ok := v.(*Builtin); ok {
				fns[mod+"."+name] = b
			}
		}
	}
	if b, ok := fns[target]; ok {
		return target, b
	}
	names := make([]string, 0, len(fns))
	for name := range fns {
		names = append(names, name)
	}
	sort.Strings(names)
	h := fnv.New32a()
	h.Write([]byte(target))
	name := names[h.Sum32()%uint32(len(names))]
	return name, fns[name]
}

// literalArgs parses args as a comma-separated list of literals.
func literalArgs(args string) ([]Value, bool) {
	e, err := minipy.ParseExprString("[" + args + "]")
	if err != nil {
		return nil, false
	}
	l, ok := e.(*minipy.ListLit)
	if !ok {
		return nil, false
	}
	return literals(l.Elts)
}

func literals(es []minipy.Expr) ([]Value, bool) {
	vals := make([]Value, len(es))
	for i, e := range es {
		v, ok := literal(e)
		if !ok {
			return nil, false
		}
		vals[i] = v
	}
	return vals, true
}

func literal(e minipy.Expr) (Value, bool) {
	switch t := e.(type) {
	case *minipy.NoneLit:
		return nil, true
	case *minipy.BoolLit:
		return t.V, true
	case *minipy.IntLit:
		return t.V, true
	case *minipy.FloatLit:
		return t.V, true
	case *minipy.StrLit:
		return t.V, true
	case *minipy.UnaryOp:
		v, ok := literal(t.X)
		switch x := v.(type) {
		case int64:
			return -x, ok && t.Op == "-"
		case float64:
			return -x, ok && t.Op == "-"
		}
	case *minipy.TupleLit:
		elts, ok := literals(t.Elts)
		return &Tuple{Elts: elts}, ok
	case *minipy.ListLit:
		elts, ok := literals(t.Elts)
		return NewList(elts), ok
	}
	return nil, false
}
