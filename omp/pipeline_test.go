package omp

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/omp4go/omp4go/internal/interp"
	"github.com/omp4go/omp4go/internal/minipy"
)

const piProgram = `
from omp4py import *

@omp
def pi(n: int) -> float:
    w: float = 1.0 / n
    pi_value: float = 0.0
    with omp("parallel for reduction(+:pi_value) num_threads(4)"):
        for i in range(n):
            local: float = (i + 0.5) * w
            pi_value += 4.0 / (1.0 + local * local)
    return pi_value * w
`

func TestLoadAndCallAllModes(t *testing.T) {
	for _, mode := range []Mode{ModePure, ModeHybrid, ModeCompiled, ModeCompiledDT} {
		p, err := Load(piProgram, "pi.py", mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		v, err := p.Call("pi", 20000)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		f, ok := v.(float64)
		if !ok || f < 3.14159 || f > 3.14160 {
			t.Fatalf("%v: pi = %v", mode, v)
		}
		if p.Mode() != mode {
			t.Fatalf("mode = %v", p.Mode())
		}
		if len(p.Transformed) != 1 || p.Transformed[0] != "pi" {
			t.Fatalf("%v: transformed = %v", mode, p.Transformed)
		}
	}
}

func TestExecTopLevel(t *testing.T) {
	var buf bytes.Buffer
	err := Exec(`
from omp4py import *

@omp
def count():
    hits = [0] * 3
    with omp("parallel num_threads(3)"):
        hits[omp_get_thread_num()] = 1
    return sum(hits)

print(count())
`, "count.py", ModeHybrid, WithStdout(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != "3\n" {
		t.Fatalf("output %q", buf.String())
	}
}

func TestExecSyntaxErrors(t *testing.T) {
	if err := Exec("def broken(:\n", "b.py", ModeHybrid); err == nil {
		t.Fatal("parse error not reported")
	}
	err := Exec(`
@omp
def f():
    with omp("parallell"):
        pass
`, "d.py", ModeHybrid)
	if err == nil || !strings.Contains(err.Error(), "unknown directive") {
		t.Fatalf("err = %v", err)
	}
}

func TestDumpOptionSurfaces(t *testing.T) {
	p, err := Load(`
@omp(dump=True)
def f():
    with omp("parallel"):
        pass
`, "dump.py", ModeHybrid)
	if err != nil {
		t.Fatal(err)
	}
	dump, ok := p.Dumps["f"]
	if !ok || !strings.Contains(dump, "__omp.parallel_run") {
		t.Fatalf("dump = %q", dump)
	}
}

func TestCallArgumentConversions(t *testing.T) {
	p, err := Load(`
def describe(xs, label, flag):
    total = 0.0
    for v in xs:
        total += v
    return (label, total, flag, len(xs))
`, "conv.py", ModeHybrid)
	if err != nil {
		t.Fatal(err)
	}
	v, err := p.Call("describe", []float64{1.5, 2.5}, "sum", true)
	if err != nil {
		t.Fatal(err)
	}
	tup, ok := v.([]any)
	if !ok || len(tup) != 4 {
		t.Fatalf("result = %#v", v)
	}
	if tup[0] != "sum" || tup[1] != 4.0 || tup[2] != true || tup[3] != int64(2) {
		t.Fatalf("result = %#v", tup)
	}
	if _, err := p.Call("describe", make(chan int), "x", false); err == nil {
		t.Fatal("unconvertible argument accepted")
	}
	if _, err := p.Call("missing"); err == nil {
		t.Fatal("missing function accepted")
	}
}

func TestDictResultConversion(t *testing.T) {
	p, err := Load(`
def counts(words):
    d = {}
    for w in words:
        d[w] = d.get(w, 0) + 1
    return d
`, "wc.py", ModeCompiled)
	if err != nil {
		t.Fatal(err)
	}
	v, err := p.Call("counts", []any{"a", "b", "a"})
	if err != nil {
		t.Fatal(err)
	}
	m, ok := v.(map[any]any)
	if !ok || m["a"] != int64(2) || m["b"] != int64(1) {
		t.Fatalf("result = %#v", v)
	}
}

func TestWithGILStillCorrect(t *testing.T) {
	p, err := Load(piProgram, "pi.py", ModePure, WithGIL())
	if err != nil {
		t.Fatal(err)
	}
	v, err := p.Call("pi", 5000)
	if err != nil {
		t.Fatal(err)
	}
	if f := v.(float64); f < 3.14 || f > 3.15 {
		t.Fatalf("pi under GIL = %v", f)
	}
}

func TestHybridHonoursPerFunctionCompile(t *testing.T) {
	p, err := Load(`
@omp(compile=True)
def fast(n: int) -> int:
    total: int = 0
    for i in range(n):
        total += i
    return total
`, "mix.py", ModeHybrid)
	if err != nil {
		t.Fatal(err)
	}
	v, err := p.Call("fast", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if v != int64(499500) {
		t.Fatalf("fast(1000) = %v", v)
	}
}

// An exception raised inside a builtin carries the position of the call
// that raised it, the same one in every mode: the builtin itself has no
// source position, so the call site stamps it (interp.Thread.CallKw).
// TestDeclaredReductionRaisesInTeam: a declared reduction whose
// combiner or initializer raises inside a parallel for is the raising
// member's exception, returned from the region in every mode. The
// merge's try/finally then releases the reduction mutex. When the
// raise was a Go panic, a raising combiner skipped that finally and
// deadlocked the teammate waiting on the mutex, and a raising
// initializer came back as a RuntimeError naming a team panic.
func TestDeclaredReductionRaisesInTeam(t *testing.T) {
	for _, decl := range []string{
		"m : boom(omp_out, omp_in)) initializer(omp_priv = 0",
		"m : omp_out + omp_in) initializer(omp_priv = boom()",
	} {
		src := "from omp4py import *\ndef boom(a=0, b=0):\n    raise ValueError('boom')\n@omp\ndef f(n):\n" +
			"    omp(\"declare reduction(" + decl + ")\")\n    x = 0\n" +
			"    with omp(\"parallel for num_threads(2) reduction(m:x)\"):\n" +
			"        for i in range(n):\n            x += i\n    return x\n"
		for _, mode := range []Mode{ModePure, ModeHybrid, ModeCompiled, ModeCompiledDT} {
			p, err := Load(src, "reduce.py", mode)
			if err != nil {
				t.Fatalf("%s %v: %v", decl, mode, err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := p.Call("f", 10)
				done <- err
			}()
			select {
			case err = <-done:
			case <-time.After(30 * time.Second):
				t.Fatalf("%s %v: the region did not return", decl, mode)
			}
			var pe *interp.PyError
			if !errors.As(err, &pe) || pe.Type != "ValueError" || pe.Msg != "boom" {
				t.Errorf("%s %v: error %v, want ValueError: boom", decl, mode, err)
			}
		}
	}
}

// TestDeclaredReductionWithGIL: with the GIL on, a declared reduction's
// combiner and initializer, called through reduce_combine and
// reduce_init or by the merges of a parallel for, return. They used to
// run on a thread of their own, which waited for the GIL its caller
// held.
func TestDeclaredReductionWithGIL(t *testing.T) {
	src := "from omp4py import *\ndef comb(a, b):\n    return a + b\ndef init():\n    return 0\n" +
		"__omp.declare_reduction('m', comb, init)\n" +
		"print(__omp.reduce_combine('m', 1, 2), __omp.reduce_init('m'))\n" +
		"@omp\ndef f(n):\n" +
		"    omp(\"declare reduction(s : omp_out + omp_in) initializer(omp_priv = 0)\")\n    x = 0\n" +
		"    with omp(\"parallel for num_threads(2) reduction(s:x)\"):\n" +
		"        for i in range(n):\n            x += i\n    return x\n"
	for _, mode := range []Mode{ModePure, ModeHybrid} {
		var out bytes.Buffer
		done := make(chan error, 1)
		var got any
		go func() {
			p, err := Load(src, "gil.py", mode, WithGIL(), WithStdout(&out))
			if err == nil {
				got, err = p.Call("f", 10)
			}
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%v: a declared reduction under the GIL did not return", mode)
		}
		if out.String() != "3 0\n" || got != int64(45) {
			t.Errorf("%v: printed %q and f(10) = %v, want \"3 0\\n\" and 45", mode, out.String(), got)
		}
	}
}

func TestBuiltinErrorPositionsAgreeAcrossModes(t *testing.T) {
	type callCase struct {
		name, call, excType string
		col                 int
	}
	cases := []callCase{
		// A call's position is its opening parenthesis.
		{"math.sqrt", "math.sqrt(x - 2.0)", "ValueError", 18},
		{"int", `int("zz")`, "ValueError", 12},
		{"len", "len(n)", "TypeError", 12},
	}
	// Calls with too few arguments, which indexed past the argument
	// slice and panicked, and arguments of a kind the runtime ABI table
	// rejects, which the runtime used to take silently (the unnamed
	// critical section for None, no label for 7).
	for _, call := range []string{
		"omp_set_num_threads()", "omp_get_team_size()", "omp_set_nested()",
		"omp_set_lock()", "omp_unset_lock()",
		"__omp.for_next()", "__omp.unravel()", "__omp.single_begin(True)",
		"__omp.sections_begin(2)", "__omp.critical_enter()", "__omp.reduce_init()",
		"__omp.ordered_begin()", "math.floor()", "time.sleep()",
		"__omp.critical_enter(None)", "__omp.parallel_run(f, 2, False, False, 7)",
	} {
		cases = append(cases, callCase{call, call, "TypeError", 9 + strings.Index(call, "(")})
	}
	for _, tc := range cases {
		src := "import math\nimport time\nfrom omp4py import *\ndef f(n: int, x: float):\n    pad = 0\n    v = " + tc.call + "\n    return v\n"
		for _, mode := range []Mode{ModePure, ModeHybrid, ModeCompiled, ModeCompiledDT} {
			p, err := Load(src, "pos.py", mode)
			if err != nil {
				t.Fatalf("%s %v: %v", tc.name, mode, err)
			}
			_, err = p.Call("f", 5, 1.0)
			var pe *interp.PyError
			if !errors.As(err, &pe) {
				t.Fatalf("%s %v: error %v is not a PyError", tc.name, mode, err)
			}
			if pe.Type != tc.excType || pe.Pos.Line != 6 || pe.Pos.Col+1 != tc.col {
				t.Errorf("%s %v: %s at line %d col %d, want %s at line 6 col %d (%v)",
					tc.name, mode, pe.Type, pe.Pos.Line, pe.Pos.Col+1, tc.excType, tc.col, err)
			}
		}
	}
}

// TestNestedDefaultTakesPrivateCopy: a parameter default of a lambda or
// def nested in a construct evaluates in the construct's scope, so it
// reads the task's firstprivate copy of j, not the shared j the loop has
// left at 3 by the time the tasks run (which summed 24).
func TestNestedDefaultTakesPrivateCopy(t *testing.T) {
	src := `
from omp4py import *

@omp
def f():
    got = []
    with omp("parallel num_threads(2)"):
        with omp("single"):
            for j in range(4):
                with omp("task firstprivate(j)"):
                    add = lambda a, b=j: a + b
                    def mul(a, b=j):
                        return a * b
                    with omp("critical"):
                        got.append(add(0) + mul(1))
    return sum(got)
`
	for _, mode := range []Mode{ModePure, ModeHybrid, ModeCompiled, ModeCompiledDT} {
		p, err := Load(src, "defaults.py", mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		v, err := p.Call("f")
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if v != int64(12) {
			t.Errorf("%v: f() = %v, want 12 (twice 0+1+2+3)", mode, v)
		}
	}
}

// TestWorksharingBoundErrorsAgreeAcrossModes: a bad bound of a
// worksharing loop raises at the user's range(...) and a bad chunk at
// the directive, with one exception type and message in every mode —
// CompiledDT's static kernel included.
func TestWorksharingBoundErrorsAgreeAcrossModes(t *testing.T) {
	cases := []struct {
		name, n, step, sched string
		excType, msg         string
		line, col            int
	}{
		// A literal static chunk: the loop is a kernel in CompiledDT.
		{"float stop", "3.5", "1", "4", "TypeError", "for_bounds() argument 'stop' must be int, not float", 7, 23},
		{"zero step", "8", "0", "4", "ValueError", "range() arg 3 must not be zero", 7, 23},
		{"zero chunk", "8", "1", "k", "ValueError", "chunk size must be positive", 6, 5},
	}
	for _, tc := range cases {
		src := "from omp4py import *\n@omp\ndef f():\n    n = " + tc.n + "\n    k = 0\n" +
			"    with omp(\"parallel for num_threads(2) schedule(static, " + tc.sched + ")\"):\n" +
			"        for i in range(0, n, " + tc.step + "):\n            pass\n    return 0\n"
		for _, mode := range []Mode{ModePure, ModeHybrid, ModeCompiled, ModeCompiledDT} {
			p, err := Load(src, "bounds.py", mode)
			if err != nil {
				t.Fatalf("%s %v: %v", tc.name, mode, err)
			}
			_, err = p.Call("f")
			var pe *interp.PyError
			if !errors.As(err, &pe) {
				t.Fatalf("%s %v: error %v is not a PyError", tc.name, mode, err)
			}
			if pe.Type != tc.excType || pe.Msg != tc.msg || pe.Pos.Line != tc.line || pe.Pos.Col+1 != tc.col {
				t.Errorf("%s %v: %s: %s at line %d col %d, want %s: %s at line %d col %d",
					tc.name, mode, pe.Type, pe.Msg, pe.Pos.Line, pe.Pos.Col+1, tc.excType, tc.msg, tc.line, tc.col)
			}
		}
	}
}

// TestIntArithmeticAgreesAcrossModes: an int-typed operator that a
// float context reads is computed as Python computes it, with int64
// arithmetic, in every mode. CompiledDT used to compute the whole float
// expression in float64, so products above 2**53 lost their low bits,
// % by zero raised the float message and -0 was -0.0; it ran both its
// typed executors that way (kernels on: the loop IR; off: the closure
// chain).
func TestIntArithmeticAgreesAcrossModes(t *testing.T) {
	kernelsOff := WithEnv(func(k string) string {
		if k == "OMP4GO_COMPILE_KERNELS" {
			return "off"
		}
		return ""
	})
	configs := []struct {
		name string
		mode Mode
		opts []ProgramOption
	}{
		{"pure", ModePure, nil}, {"hybrid", ModeHybrid, nil}, {"compiled", ModeCompiled, nil},
		{"compiled-dt", ModeCompiledDT, nil}, {"compiled-dt kernels off", ModeCompiledDT, []ProgramOption{kernelsOff}},
	}
	cases := []struct {
		name, expr string
		n, k       int
		want       any // the float result, or the *interp.PyError raised
	}{
		{"product above 2**53", "((i * k + 123456789123) % 97) * 0.5", 1000, 90000000070001, 24023.0},
		{"modulo by zero", "(i % k) * 0.5", 4, 0,
			&interp.PyError{Type: "ZeroDivisionError", Msg: "integer division or modulo by zero", Pos: minipy.Position{Line: 8, Col: 24}}},
		{"negated zero", "math.atan2(-i * 1.0, -1.0)", 1, 0, math.Pi},
	}
	for _, tc := range cases {
		src := "import math\nfrom omp4py import *\n@omp\ndef f(n: int, k: int) -> float:\n    total: float = 0.0\n" +
			"    with omp(\"parallel for reduction(+:total) num_threads(2)\"):\n" +
			"        for i in range(n):\n            total += " + tc.expr + "\n    return total\n"
		for _, cfg := range configs {
			p, err := Load(src, "int.py", cfg.mode, cfg.opts...)
			if err != nil {
				t.Fatalf("%s, %s: %v", tc.name, cfg.name, err)
			}
			v, err := p.Call("f", tc.n, tc.k)
			if want, ok := tc.want.(*interp.PyError); ok {
				var pe *interp.PyError
				if !errors.As(err, &pe) || pe.Type != want.Type || pe.Msg != want.Msg || pe.Pos.Line != want.Pos.Line || pe.Pos.Col != want.Pos.Col {
					t.Errorf("%s, %s: got %v, %v; want %s: %s at line %d col %d",
						tc.name, cfg.name, v, err, want.Type, want.Msg, want.Pos.Line, want.Pos.Col+1)
				}
				continue
			}
			if err != nil || v != tc.want {
				t.Errorf("%s, %s: got %v, %v; want %v", tc.name, cfg.name, v, err, tc.want)
			}
		}
	}
}
