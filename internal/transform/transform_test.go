package transform

import (
	"bytes"
	"strings"
	"testing"

	"github.com/omp4go/omp4go/internal/interp"
	"github.com/omp4go/omp4go/internal/minipy"
	"github.com/omp4go/omp4go/internal/minipy/minipytest"
	"github.com/omp4go/omp4go/internal/rt"
)

// runOMP parses, transforms, and executes src, returning stdout. Every
// def and lambda of the transformed module must carry the record the
// reference scope analysis computes from its body.
func runOMP(t *testing.T, src string) string {
	t.Helper()
	return runOMPLayer(t, src, rt.LayerAtomic)
}

func runOMPLayer(t *testing.T, src string, layer rt.Layer) string {
	t.Helper()
	mod, err := minipy.Parse(src, "test.py")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := Module(mod); err != nil {
		t.Fatalf("transform: %v", err)
	}
	if err := minipytest.CheckScopes(mod); err != nil {
		t.Fatalf("scope record after transform: %v\n%s", err, minipy.Unparse(mod))
	}
	var buf bytes.Buffer
	in := interp.New(interp.Options{Stdout: &buf, Layer: layer,
		Getenv: func(string) string { return "" }})
	if err := in.RunModule(mod); err != nil {
		t.Fatalf("run: %v\ntransformed:\n%s", err, minipy.Unparse(mod))
	}
	return buf.String()
}

func transformErr(t *testing.T, src, wantSub string) {
	t.Helper()
	mod, err := minipy.Parse(src, "test.py")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = Module(mod)
	if err == nil {
		t.Fatalf("transform succeeded, want error containing %q", wantSub)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("error %q does not contain %q", err, wantSub)
	}
}

func expectOMP(t *testing.T, src, want string) {
	t.Helper()
	got := runOMP(t, src)
	if got != want {
		t.Fatalf("output mismatch.\ngot:  %q\nwant: %q", got, want)
	}
}

// TestPiFigure1 runs the paper's flagship example end to end.
func TestPiFigure1(t *testing.T) {
	for _, layer := range []rt.Layer{rt.LayerMutex, rt.LayerAtomic} {
		src := `
from omp4py import *

@omp
def pi(n):
    w = 1.0 / n
    pi_value = 0.0
    with omp("parallel for reduction(+:pi_value) num_threads(4)"):
        for i in range(n):
            local = (i + 0.5) * w
            pi_value += 4.0 / (1.0 + local * local)
    return pi_value * w

v = pi(20000)
print(v > 3.14159 and v < 3.14160)
`
		got := runOMPLayer(t, src, layer)
		if got != "True\n" {
			t.Fatalf("layer %v: got %q", layer, got)
		}
	}
}

func TestParallelBasics(t *testing.T) {
	expectOMP(t, `
from omp4py import *

@omp
def f():
    seen = [0] * 4
    with omp("parallel num_threads(4)"):
        seen[omp_get_thread_num()] = omp_get_num_threads()
    return seen

print(f())
`, "[4, 4, 4, 4]\n")
}

func TestParallelIfFalse(t *testing.T) {
	expectOMP(t, `
from omp4py import *

@omp
def f(cond):
    sizes = []
    with omp("parallel num_threads(4) if(cond)"):
        with omp("critical"):
            sizes.append(omp_get_num_threads())
    return sizes

print(f(False))
print(len(f(True)))
`, "[1]\n4\n")
}

func TestSharedVsPrivateDefaults(t *testing.T) {
	// Variables defined before the block are shared; variables first
	// bound inside are thread-private (§III-C).
	expectOMP(t, `
from omp4py import *

@omp
def f():
    total = 0
    with omp("parallel num_threads(4)"):
        mine = omp_get_thread_num() + 1
        with omp("critical"):
            total += mine
    return total

print(f())
`, "10\n")
}

func TestPrivateClause(t *testing.T) {
	expectOMP(t, `
from omp4py import *

@omp
def f():
    x = 100
    with omp("parallel num_threads(4) private(x)"):
        x = omp_get_thread_num()
    return x

print(f())
`, "100\n") // private copies are discarded
}

func TestFirstprivateClause(t *testing.T) {
	expectOMP(t, `
from omp4py import *

@omp
def f():
    x = 7
    out = [0] * 3
    with omp("parallel num_threads(3) firstprivate(x)"):
        x = x * 10 + omp_get_thread_num()
        out[omp_get_thread_num()] = x
    return (x, sorted(out))

print(f())
`, "(7, [70, 71, 72])\n")
}

func TestReductionOperators(t *testing.T) {
	expectOMP(t, `
from omp4py import *

@omp
def sums(n):
    s = 0
    p = 1
    mx = 0
    mn = 10 ** 9
    with omp("parallel for reduction(+:s) reduction(max:mx) reduction(min:mn) num_threads(4)"):
        for i in range(1, n + 1):
            s += i
            mx = max(mx, i)
            mn = min(mn, i)
    return (s, mx, mn)

print(sums(100))
`, "(5050, 100, 1)\n")
	expectOMP(t, `
from omp4py import *

@omp
def logic(n):
    allpos = True
    anyzero = False
    with omp("parallel for reduction(&&:allpos) reduction(||:anyzero) num_threads(4)"):
        for i in range(n):
            allpos = allpos and (i >= 0)
            anyzero = anyzero or (i == 0)
    return (allpos, anyzero)

print(logic(50))
`, "(True, True)\n")
	expectOMP(t, `
from omp4py import *

@omp
def bits(n):
    o = 0
    x = 0
    a = -1
    with omp("parallel for reduction(|:o) reduction(^:x) reduction(&:a) num_threads(2)"):
        for i in range(n):
            o = o | i
            x = x ^ i
            a = a & (i | 240)
    return (o, x, a)

print(bits(16))
`, "(15, 0, 240)\n")
}

func TestDeclareReduction(t *testing.T) {
	expectOMP(t, `
from omp4py import *

@omp
def f(n):
    omp("declare reduction(addmul : omp_out + omp_in) initializer(omp_priv = 0)")
    acc = 0
    with omp("parallel for reduction(addmul:acc) num_threads(4)"):
        for i in range(n):
            acc = acc + i
    return acc

print(f(100))
`, "4950\n")
}

func TestScheduleClauses(t *testing.T) {
	for _, sched := range []string{
		"schedule(static)", "schedule(static, 3)", "schedule(dynamic)",
		"schedule(dynamic, 5)", "schedule(guided)", "schedule(guided, 2)",
		"schedule(auto)", "schedule(runtime)",
	} {
		src := `
from omp4py import *

@omp
def f(n):
    hits = [0] * n
    with omp("parallel for num_threads(4) ` + sched + `"):
        for i in range(n):
            hits[i] = hits[i] + 1
    return (sum(hits), min(hits))

print(f(100))
`
		got := runOMP(t, src)
		if got != "(100, 1)\n" {
			t.Fatalf("%s: got %q", sched, got)
		}
	}
}

func TestForNonUnitStep(t *testing.T) {
	expectOMP(t, `
from omp4py import *

@omp
def f():
    total = 0
    with omp("parallel for reduction(+:total) num_threads(3) schedule(dynamic, 2)"):
        for i in range(1, 20, 3):
            total += i
    return total

print(f())
`, "70\n") // 1+4+7+10+13+16+19
}

func TestCollapse(t *testing.T) {
	expectOMP(t, `
from omp4py import *

@omp
def f():
    total = 0
    with omp("parallel for collapse(2) reduction(+:total) num_threads(4) schedule(dynamic, 3)"):
        for i in range(5):
            for j in range(7):
                total += i * 100 + j
    return total

print(f())
`, "7105\n") // sum over i<5,j<7 of 100i+j = 100*7*10 + 5*21
}

func TestLastprivate(t *testing.T) {
	expectOMP(t, `
from omp4py import *

@omp
def f(n):
    last = -1
    with omp("parallel num_threads(4)"):
        with omp("for lastprivate(last) schedule(dynamic, 3)"):
            for i in range(n):
                last = i * 2
    return last

print(f(50))
`, "98\n")
}

func TestOrphanedForInsideParallel(t *testing.T) {
	expectOMP(t, `
from omp4py import *

@omp
def f(n):
    total = 0
    with omp("parallel num_threads(4)"):
        with omp("for reduction(+:total)"):
            for i in range(n):
                total += 1
    return total

print(f(1000))
`, "1000\n")
}

func TestNowaitLoops(t *testing.T) {
	expectOMP(t, `
from omp4py import *

@omp
def f(n):
    a = 0
    b = 0
    with omp("parallel num_threads(4)"):
        with omp("for reduction(+:a) nowait"):
            for i in range(n):
                a += 1
        with omp("for reduction(+:b)"):
            for i in range(n):
                b += 1
    return (a, b)

print(f(200))
`, "(200, 200)\n")
}

func TestSingleAndBarrier(t *testing.T) {
	expectOMP(t, `
from omp4py import *

@omp
def f():
    count = [0]
    with omp("parallel num_threads(6)"):
        with omp("single"):
            count[0] = count[0] + 1
        omp("barrier")
        with omp("single nowait"):
            count[0] = count[0] + 10
    return count[0]

print(f())
`, "11\n")
}

func TestSingleCopyprivate(t *testing.T) {
	expectOMP(t, `
from omp4py import *

@omp
def f():
    results = [0] * 4
    v = 0
    with omp("parallel num_threads(4) private(v)"):
        with omp("single copyprivate(v)"):
            v = 42
        results[omp_get_thread_num()] = v
    return results

print(f())
`, "[42, 42, 42, 42]\n")
}

func TestMaster(t *testing.T) {
	expectOMP(t, `
from omp4py import *

@omp
def f():
    hits = []
    with omp("parallel num_threads(4)"):
        with omp("master"):
            hits.append(omp_get_thread_num())
    return hits

print(f())
`, "[0]\n")
}

func TestSections(t *testing.T) {
	expectOMP(t, `
from omp4py import *

@omp
def f():
    out = [0, 0, 0]
    with omp("parallel num_threads(2)"):
        with omp("sections"):
            with omp("section"):
                out[0] = 1
            with omp("section"):
                out[1] = 2
            with omp("section"):
                out[2] = 3
    return out

print(f())
`, "[1, 2, 3]\n")
}

func TestParallelSections(t *testing.T) {
	expectOMP(t, `
from omp4py import *

@omp
def f():
    a = 0
    b = 0
    with omp("parallel sections num_threads(2)"):
        with omp("section"):
            a = 10
        with omp("section"):
            b = 20
    return a + b

print(f())
`, "30\n")
}

func TestCriticalNamedAndUnnamed(t *testing.T) {
	expectOMP(t, `
from omp4py import *

@omp
def f():
    c = 0
    with omp("parallel num_threads(8)"):
        for i in range(100):
            with omp("critical(bump)"):
                c += 1
    return c

print(f())
`, "800\n")
}

func TestAtomic(t *testing.T) {
	expectOMP(t, `
from omp4py import *

@omp
def f():
    x = 0
    with omp("parallel num_threads(8)"):
        for i in range(100):
            with omp("atomic"):
                x += 1
    return x

print(f())
`, "800\n")
}

func TestAtomicRequiresSingleUpdate(t *testing.T) {
	transformErr(t, `
@omp
def f():
    with omp("parallel"):
        with omp("atomic"):
            x = 1
            y = 2
`, "exactly one update statement")
	transformErr(t, `
@omp
def f():
    with omp("parallel"):
        with omp("atomic"):
            print("no")
`, "assignment")
}

func TestOrdered(t *testing.T) {
	expectOMP(t, `
from omp4py import *

@omp
def f(n):
    out = []
    with omp("parallel for ordered num_threads(4) schedule(dynamic, 2)"):
        for i in range(n):
            v = i * i
            with omp("ordered"):
                out.append(i)
    return out

print(f(16))
`, "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]\n")
}

func TestOrderedOutsideLoopRejected(t *testing.T) {
	transformErr(t, `
@omp
def f():
    with omp("parallel"):
        with omp("ordered"):
            pass
`, "ordered region must be closely nested")
}

func TestTasksFibonacci(t *testing.T) {
	// The paper's Fig. 4, with the if clause cutting task granularity.
	expectOMP(t, `
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

print(run(15))
`, "610\n")
}

func TestTaskFirstprivate(t *testing.T) {
	expectOMP(t, `
from omp4py import *

@omp
def f():
    out = []
    with omp("parallel num_threads(2)"):
        with omp("single"):
            i = 0
            while i < 4:
                with omp("task firstprivate(i)"):
                    with omp("critical"):
                        out.append(i)
                i += 1
    return sorted(out)

print(f())
`, "[0, 1, 2, 3]\n")
}

func TestDefaultNone(t *testing.T) {
	transformErr(t, `
@omp
def f():
    x = 1
    with omp("parallel default(none)"):
        y = x + 1
`, "default(none)")
	// Listing the variable fixes it.
	runOMP(t, `
from omp4py import *

@omp
def f():
    x = 1
    with omp("parallel default(none) shared(x) num_threads(2)"):
        y = x + 1
f()
`)
}

func TestDefaultFirstprivate(t *testing.T) {
	expectOMP(t, `
from omp4py import *

@omp
def f():
    x = 5
    with omp("parallel num_threads(3) default(firstprivate)"):
        x = x + omp_get_thread_num()
    return x

print(f())
`, "5\n")
}

func TestThreadprivateCopyin(t *testing.T) {
	expectOMP(t, `
from omp4py import *

@omp
def f():
    tp = 9
    omp("threadprivate(tp)")
    seen = [0] * 3
    with omp("parallel num_threads(3) copyin(tp)"):
        seen[omp_get_thread_num()] = tp + omp_get_thread_num()
    return sorted(seen)

print(f())
`, "[9, 10, 11]\n")
}

func TestBarrierFlushTaskwaitStandalone(t *testing.T) {
	expectOMP(t, `
from omp4py import *

@omp
def f():
    phase = [0] * 4
    ok = [True]
    with omp("parallel num_threads(4)"):
        phase[omp_get_thread_num()] = 1
        omp("barrier")
        omp("flush")
        if sum(phase) != 4:
            ok[0] = False
    return ok[0]

print(f())
`, "True\n")
}

func TestDirectiveSyntaxErrors(t *testing.T) {
	transformErr(t, `
@omp
def f():
    with omp("paralel"):
        pass
`, "unknown directive")
	transformErr(t, `
@omp
def f():
    with omp("barrier"):
        pass
`, "does not take a block")
	transformErr(t, `
@omp
def f():
    omp("parallel")
`, "requires a structured block")
	transformErr(t, `
@omp
def f():
    with omp("parallel for"):
        x = 1
`, "for loop")
	transformErr(t, `
@omp
def f():
    with omp("parallel for"):
        for x in [1, 2]:
            pass
`, "range")
	transformErr(t, `
@omp
def f():
    with omp("sections"):
        x = 1
`, "section")
	transformErr(t, `
@omp
def f():
    with omp("section"):
        pass
`, "only valid inside a sections construct")
}

func TestUndecoratedFunctionsUntouched(t *testing.T) {
	// Without @omp, directives are inert (§III-A) and code runs
	// sequentially.
	expectOMP(t, `
from omp4py import *

def f(n):
    total = 0
    with omp("parallel for reduction(+:total)"):
        for i in range(n):
            total += i
    return total

print(f(10))
`, "45\n")
}

func TestDumpOption(t *testing.T) {
	src := `
from omp4py import *

@omp(dump=True)
def pi(n):
    w = 1.0 / n
    pi_value = 0.0
    with omp("parallel for reduction(+:pi_value)"):
        for i in range(n):
            local = (i + 0.5) * w
            pi_value += 4.0 / (1.0 + local * local)
    return pi_value * w
`
	mod, err := minipy.Parse(src, "t.py")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Module(mod)
	if err != nil {
		t.Fatal(err)
	}
	dump, ok := res.Dumps["pi"]
	if !ok {
		t.Fatal("no dump recorded")
	}
	for _, want := range []string{
		"def __omp_parallel_", "nonlocal pi_value", "__omp.parallel_run",
		"__omp.for_bounds", "__omp.for_next", "__omp.mutex_lock",
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q.\ndump:\n%s", want, dump)
		}
	}
	// The dumped source must itself parse.
	if _, err := minipy.Parse(dump, "dump.py"); err != nil {
		t.Fatalf("dump does not re-parse: %v\n%s", err, dump)
	}
	if res.Functions[0] != "pi" {
		t.Fatalf("functions = %v", res.Functions)
	}
}

func TestCompileFlagRecorded(t *testing.T) {
	src := `
@omp(compile=True)
def f():
    with omp("parallel"):
        pass

@omp
def g():
    with omp("parallel"):
        pass
`
	mod, err := minipy.Parse(src, "t.py")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Module(mod)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compile["f"] || res.Compile["g"] {
		t.Fatalf("compile flags: %v", res.Compile)
	}
}

func TestNestedParallelRegions(t *testing.T) {
	expectOMP(t, `
from omp4py import *

@omp
def f():
    omp_set_nested(True)
    total = [0]
    with omp("parallel num_threads(2)"):
        with omp("parallel num_threads(2)"):
            with omp("critical"):
                total[0] = total[0] + 1
    return total[0]

print(f())
`, "4\n")
}

func TestExceptionInsideParallelSurfaces(t *testing.T) {
	mod, err := minipy.Parse(`
from omp4py import *

@omp
def f():
    with omp("parallel num_threads(2)"):
        raise ValueError("inside region")

f()
`, "t.py")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Module(mod); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	in := interp.New(interp.Options{Stdout: &buf, Layer: rt.LayerAtomic,
		Getenv: func(string) string { return "" }})
	rerr := in.RunModule(mod)
	if rerr == nil || !strings.Contains(rerr.Error(), "inside region") {
		t.Fatalf("error = %v", rerr)
	}
}

func TestGILModeRunsTransformedCode(t *testing.T) {
	src := `
from omp4py import *

@omp
def f(n):
    total = 0
    with omp("parallel for reduction(+:total) num_threads(4)"):
        for i in range(n):
            total += i
    return total

print(f(1000))
`
	mod, err := minipy.Parse(src, "t.py")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Module(mod); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	in := interp.New(interp.Options{Stdout: &buf, GIL: true, Layer: rt.LayerAtomic,
		Getenv: func(string) string { return "" }})
	if err := in.RunModule(mod); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "499500\n" {
		t.Fatalf("GIL run output %q", buf.String())
	}
}
