package omp

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/omp4go/omp4go/internal/interp"
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
func TestBuiltinErrorPositionsAgreeAcrossModes(t *testing.T) {
	cases := []struct {
		name, call, excType string
		col                 int
	}{
		// A call's position is its opening parenthesis.
		{"math.sqrt", "math.sqrt(x - 2.0)", "ValueError", 18},
		{"int", `int("zz")`, "ValueError", 12},
		{"len", "len(n)", "TypeError", 12},
	}
	for _, tc := range cases {
		src := "import math\n\ndef f(n: int, x: float):\n    pad = 0\n    v = " + tc.call + "\n    return v\n"
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
			if pe.Type != tc.excType || pe.Pos.Line != 5 || pe.Pos.Col+1 != tc.col {
				t.Errorf("%s %v: %s at line %d col %d, want %s at line 5 col %d (%v)",
					tc.name, mode, pe.Type, pe.Pos.Line, pe.Pos.Col+1, tc.excType, tc.col, err)
			}
		}
	}
}
