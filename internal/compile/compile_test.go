package compile

import (
	"bytes"
	"strings"
	"testing"

	"github.com/omp4go/omp4go/internal/interp"
	"github.com/omp4go/omp4go/internal/minipy"
	"github.com/omp4go/omp4go/internal/rt"
	"github.com/omp4go/omp4go/internal/transform"
)

// runMode executes src interpreted (mode 0), compiled (1), or
// compiled with types (2), after the @omp transformation.
func runMode(t *testing.T, src string, mode int) string {
	t.Helper()
	mod, err := minipy.Parse(src, "test.py")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := transform.Module(mod); err != nil {
		t.Fatalf("transform: %v", err)
	}
	var buf bytes.Buffer
	in := interp.New(interp.Options{Stdout: &buf, Layer: rt.LayerAtomic,
		Getenv: func(string) string { return "" }})
	if mode > 0 {
		if err := Install(in, mod, Options{Typed: mode == 2}); err != nil {
			t.Fatalf("compile: %v", err)
		}
	}
	if err := in.RunModule(mod); err != nil {
		t.Fatalf("run (mode %d): %v\nsource:\n%s", mode, err, minipy.Unparse(mod))
	}
	return buf.String()
}

// expectAllModes checks that all three modes produce want.
func expectAllModes(t *testing.T, src, want string) {
	t.Helper()
	for mode := 0; mode <= 2; mode++ {
		got := runMode(t, src, mode)
		if got != want {
			t.Fatalf("mode %d output mismatch.\ngot:  %q\nwant: %q", mode, got, want)
		}
	}
}

// expectModesAgree checks that all three modes produce identical
// output (differential testing without a golden value).
func expectModesAgree(t *testing.T, src string) {
	t.Helper()
	base := runMode(t, src, 0)
	for mode := 1; mode <= 2; mode++ {
		got := runMode(t, src, mode)
		if got != base {
			t.Fatalf("mode %d diverges from interpreter.\ninterp: %q\nmode%d: %q", mode, base, mode, got)
		}
	}
}

func TestCompiledArithmetic(t *testing.T) {
	expectAllModes(t, `
def f():
    print(7 // 2, -7 // 2, 7 % 3, -7 % 3, 7 % -3)
    print(7 / 2, 2 ** 10, 2 ** -1)
    print(1.5 + 2, 10 - 2 - 3, 2 ** 3 ** 2)
    print(5 & 3, 5 | 3, 5 ^ 3, 1 << 4, 64 >> 2, ~5)
f()
`, "3 -4 1 2 -2\n3.5 1024 0.5\n3.5 5 512\n1 7 6 16 16 -6\n")
}

func TestCompiledTypedNumerics(t *testing.T) {
	expectAllModes(t, `
def f(n: int) -> float:
    w: float = 1.0 / n
    acc: float = 0.0
    for i in range(n):
        local = (i + 0.5) * w
        acc += 4.0 / (1.0 + local * local)
    return acc * w

v = f(50000)
print(v > 3.14159 and v < 3.14160)
`, "True\n")
}

func TestCompiledControlFlow(t *testing.T) {
	expectAllModes(t, `
def f(n):
    total = 0
    i = 0
    while True:
        i += 1
        if i > n:
            break
        if i % 2 == 0:
            continue
        total += i
    return total
print(f(100))
`, "2500\n")
	expectAllModes(t, `
def grade(x):
    if x < 10:
        return "low"
    elif x < 20:
        return "mid"
    else:
        return "high"
print(grade(5), grade(15), grade(25))
`, "low mid high\n")
}

func TestCompiledForLoops(t *testing.T) {
	expectAllModes(t, `
def f():
    total = 0
    for i in range(10):
        total += i
    for i in range(10, 0, -2):
        total += i
    for v in [1, 2, 3]:
        total += v
    for c in "ab":
        total += ord(c)
    for k in {"x": 1, "y": 2}:
        total += len(k)
    return total
print(f())
`, "278\n")
	expectAllModes(t, `
def f():
    out = []
    for k, v in [(1, "a"), (2, "b")]:
        out.append(v * k)
    return out
print(f())
`, "['a', 'bb']\n")
}

func TestCompiledClosuresAndNonlocal(t *testing.T) {
	expectAllModes(t, `
def counter():
    n = 0
    def bump():
        nonlocal n
        n += 1
        return n
    return bump
c = counter()
print(c(), c(), c())
d = counter()
print(d())
`, "1 2 3\n1\n")
	expectAllModes(t, `
def make_adders():
    fns = []
    for i in range(3):
        def make(k):
            def add(x):
                return x + k
            return add
        fns.append(make(i))
    return fns
a = make_adders()
print(a[0](10), a[1](10), a[2](10))
`, "10 11 12\n")
}

func TestCompiledGlobals(t *testing.T) {
	expectAllModes(t, `
counter = 0
def bump():
    global counter
    counter += 1
def read():
    return counter
bump()
bump()
print(read())
`, "2\n")
}

func TestCompiledRecursion(t *testing.T) {
	expectAllModes(t, `
def fact(n):
    if n <= 1:
        return 1
    return n * fact(n - 1)
print(fact(12))
`, "479001600\n")
	expectAllModes(t, `
def fib(n: int) -> int:
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)
print(fib(15))
`, "610\n")
}

func TestCompiledDataStructures(t *testing.T) {
	expectAllModes(t, `
def f():
    d = {}
    for w in ["a", "bb", "a", "ccc"]:
        d[w] = d.get(w, 0) + 1
    l = sorted(d.keys())
    out = []
    for k in l:
        out.append((k, d[k]))
    return out
print(f())
`, "[('a', 2), ('bb', 1), ('ccc', 1)]\n")
	expectAllModes(t, `
def f():
    s = set()
    for i in range(10):
        s.add(i % 3)
    l = [5, 3, 1]
    l.sort()
    t = (1, 2) + (3,)
    return (len(s), l, t, l[::-1], "xyz"[1:])
print(f())
`, "(3, [1, 3, 5], (1, 2, 3), [5, 3, 1], 'yz')\n")
}

func TestCompiledExceptions(t *testing.T) {
	expectAllModes(t, `
def safe_div(a, b):
    try:
        return a / b
    except ZeroDivisionError:
        return "div0"
    finally:
        pass
print(safe_div(10, 4), safe_div(1, 0))
`, "2.5 div0\n")
	expectAllModes(t, `
def f():
    try:
        raise ValueError("boom")
    except ValueError as e:
        return "caught " + e.args[0]
print(f())
`, "caught boom\n")
	expectAllModes(t, `
def f():
    order = []
    try:
        order.append(1)
        raise KeyError("k")
    except IndexError:
        order.append(98)
    except:
        order.append(2)
    finally:
        order.append(3)
    return order
print(f())
`, "[1, 2, 3]\n")
}

func TestCompiledLambdasAndKwargs(t *testing.T) {
	expectAllModes(t, `
def apply(fn, x):
    return fn(x)
def f(a, b=10, c=20):
    return a + b + c
print(apply(lambda v: v * 2, 21))
print(f(1), f(1, c=2), f(1, 2, 3))
print(sorted([3, 1, 2], reverse=True))
`, "42\n31 13 6\n[3, 2, 1]\n")
}

func TestCompiledMathModule(t *testing.T) {
	expectAllModes(t, `
import math
def f(x: float) -> float:
    return math.sqrt(x) + math.pow(x, 2.0) + math.sin(0.0)
print(f(4.0))
def g():
    return math.floor(2.9) + math.ceil(0.1)
print(g())
`, "18.0\n3\n")
}

func TestCompiledStringOps(t *testing.T) {
	expectAllModes(t, `
def wc(text):
    counts = {}
    for w in text.lower().split():
        counts[w] = counts.get(w, 0) + 1
    out = []
    for k in sorted(counts.keys()):
        out.append(k + ":" + str(counts[k]))
    return " ".join(out)
print(wc("the cat and The dog and the bird"))
`, "and:2 bird:1 cat:1 dog:1 the:3\n")
}

func TestCompiledOMPPi(t *testing.T) {
	// The full pipeline: transform + compile, all modes.
	expectAllModes(t, `
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

v = pi(20000)
print(v > 3.14159 and v < 3.14160)
`, "True\n")
}

func TestCompiledOMPTasks(t *testing.T) {
	expectAllModes(t, `
from omp4py import *

@omp
def fibonacci(n):
    if n <= 1:
        return n
    fib1 = 0
    fib2 = 0
    with omp("task if(n > 8)"):
        fib1 = fibonacci(n - 1)
    with omp("task if(n > 8)"):
        fib2 = fibonacci(n - 2)
    omp("taskwait")
    return fib1 + fib2

@omp
def run(n):
    result = [0]
    with omp("parallel num_threads(4)"):
        with omp("single"):
            result[0] = fibonacci(n)
    return result[0]

print(run(14))
`, "377\n")
}

func TestCompiledOMPWorksharing(t *testing.T) {
	expectAllModes(t, `
from omp4py import *

@omp
def f(n):
    hits = [0] * n
    with omp("parallel for num_threads(4) schedule(dynamic, 7)"):
        for i in range(n):
            hits[i] = hits[i] + 1
    return (sum(hits), min(hits), max(hits))

print(f(500))
`, "(500, 1, 1)\n")
}

func TestCompiledTypedListKernel(t *testing.T) {
	// Float-specialized list storage with unboxed element access.
	expectAllModes(t, `
def axpy(n: int) -> float:
    x = [0.0] * n
    y = [0.0] * n
    for i in range(n):
        x[i] = i * 0.5
        y[i] = i * 0.25
    a: float = 2.0
    for i in range(n):
        y[i] = a * x[i] + y[i]
    s: float = 0.0
    for i in range(n):
        s += y[i]
    return s
print(axpy(1000))
`, "624375.0\n")
}

func TestCompiledModesAgreeOnTrickyPrograms(t *testing.T) {
	srcs := []string{
		// Mixed typed/boxed arithmetic and shadowing.
		`
def f(x: float):
    y = "s" if x > 1e6 else x * 2
    return y
print(f(2.0), f(2e7))
`,
		// Chained comparisons and short circuits.
		`
def g(a, b, c):
    return 0 <= a < b <= c and (a or b)
print(g(1, 2, 3), g(2, 2, 3), g(0, 1, 1))
`,
		// Augmented assignment on subscripts.
		`
def h():
    d = {"k": 10}
    d["k"] += 5
    l = [1, 2, 3]
    l[1] *= 10
    return (d["k"], l)
print(h())
`,
		// Negative indices and slices.
		`
def s():
    l = [0, 1, 2, 3, 4]
    return (l[-1], l[-2], l[1:-1], l[::2])
print(s())
`,
		// While loop with typed counter and float accumulation.
		`
def w(n: int) -> float:
    acc: float = 0.0
    i: int = 0
    while i < n:
        acc += i / 2
        i += 1
    return acc
print(w(101))
`,
		// Unpacking and swaps.
		`
def u():
    a, b = 1, 2
    a, b = b, a
    (c, d), e = (3, 4), 5
    return (a, b, c, d, e)
print(u())
`,
		// Default parameters evaluated at definition time.
		`
base = 10
def dflt(x, y=base):
    return x + y
base = 99
print(dflt(1), dflt(1, 2))
`,
		// Deep nesting of functions sharing state.
		`
def outer():
    acc = []
    def mid():
        def inner():
            acc.append(len(acc))
        inner()
        inner()
    mid()
    return acc
print(outer())
`,
	}
	for _, src := range srcs {
		expectModesAgree(t, src)
	}
}

func TestCompileOnlySelectedFunctions(t *testing.T) {
	src := `
@omp(compile=True)
def fast(n):
    return n * 2

def slow(n):
    return n * 3

print(fast(10), slow(10))
`
	mod, err := minipy.Parse(src, "t.py")
	if err != nil {
		t.Fatal(err)
	}
	res, err := transform.Module(mod)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	in := interp.New(interp.Options{Stdout: &buf, Layer: rt.LayerAtomic,
		Getenv: func(string) string { return "" }})
	if err := Install(in, mod, Options{Only: res.Compile}); err != nil {
		t.Fatal(err)
	}
	if err := in.RunModule(mod); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "20 30\n" {
		t.Fatalf("output %q", buf.String())
	}
}

func TestCompiledUnboundLocal(t *testing.T) {
	src := `
def f():
    if False:
        x = 1
    return x
f()
`
	mod, err := minipy.Parse(src, "t.py")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	in := interp.New(interp.Options{Stdout: &buf, Layer: rt.LayerAtomic,
		Getenv: func(string) string { return "" }})
	if err := Install(in, mod, Options{}); err != nil {
		t.Fatal(err)
	}
	rerr := in.RunModule(mod)
	if rerr == nil || !strings.Contains(rerr.Error(), "UnboundLocalError") {
		t.Fatalf("error = %v, want UnboundLocalError", rerr)
	}
}

func TestTypeInference(t *testing.T) {
	src := `
def f(n: int, w: float):
    i = 0
    x = 1.5
    y = x + i
    s = "str"
    acc = 0
    for k in range(n):
        acc = acc + k
    mixed = 1
    mixed = "later"
    return acc
`
	mod, err := minipy.Parse(src, "t.py")
	if err != nil {
		t.Fatal(err)
	}
	fd := mod.Body[0].(*minipy.FuncDef)
	types := inferTypes(fd)
	want := map[string]valType{
		"n": tInt, "w": tFloat, "i": tInt, "x": tFloat, "y": tFloat,
		"s": tBoxed, "acc": tInt, "k": tInt, "mixed": tBoxed,
	}
	for name, wt := range want {
		if got := types.of(name); got != wt {
			t.Errorf("type of %s = %v, want %v", name, got, wt)
		}
	}
}

func TestCompiledSpeedupOverInterpreter(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	src := `
def work(n: int) -> float:
    acc: float = 0.0
    for i in range(n):
        acc += (i % 7) * 0.5
    return acc
print(work(300000))
`
	timeMode := func(mode int) float64 {
		mod, err := minipy.Parse(src, "t.py")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		in := interp.New(interp.Options{Stdout: &buf, Layer: rt.LayerAtomic,
			Getenv: func(string) string { return "" }})
		if mode > 0 {
			if err := Install(in, mod, Options{Typed: mode == 2}); err != nil {
				t.Fatal(err)
			}
		}
		start := in.Runtime().GetWTime()
		if err := in.RunModule(mod); err != nil {
			t.Fatal(err)
		}
		return in.Runtime().GetWTime() - start
	}
	tInterp := timeMode(0)
	tCompiled := timeMode(1)
	tTyped := timeMode(2)
	t.Logf("interp %.4fs, compiled %.4fs, typed %.4fs", tInterp, tCompiled, tTyped)
	// Individual runs are noisy; assert only the robust ordering the
	// paper reports (compiled modes beat interpretation).
	if tCompiled > tInterp {
		t.Errorf("compiled mode (%.4fs) slower than interpreter (%.4fs)", tCompiled, tInterp)
	}
	if tTyped > tInterp {
		t.Errorf("typed mode (%.4fs) slower than interpreter (%.4fs)", tTyped, tInterp)
	}
}
