package interp

import (
	"bytes"
	"strings"
	"testing"

	"github.com/omp4go/omp4go/internal/rt"
)

func TestMoreListMethods(t *testing.T) {
	expectOut(t, `
l = [1, 2]
l.extend([3, 4])
l.insert(0, 0)
l.insert(-1, 9)
print(l)
c = l.copy()
c.append(5)
print(len(l), len(c))
l.clear()
print(l)
`, "[0, 1, 2, 3, 9, 4]\n6 7\n[]\n")
	runErr(t, "[].pop()", "IndexError")
	runErr(t, "[1].index(9)", "ValueError")
	runErr(t, "[1].pop(\"x\")", "TypeError")
}

func TestMoreDictMethods(t *testing.T) {
	expectOut(t, `
d = {"a": 1}
print(d.setdefault("a", 99), d.setdefault("b", 2))
print(sorted(d.items()))
e = d.copy()
e["c"] = 3
print(len(d), len(e))
d.clear()
print(len(d), e.values())
`, "1 2\n[('a', 1), ('b', 2)]\n2 3\n0 [1, 2, 3]\n")
	runErr(t, "d = {}\nd.update([1])", "TypeError")
}

func TestMoreSetMethods(t *testing.T) {
	expectOut(t, `
a = {1, 2, 3}
b = {2, 3, 4}
u = a.union(b)
i = a.intersection(b)
print(len(u), sorted(i.union()))
a.discard(99)
a.discard(1)
print(sorted(a.union()))
`, "4 [2, 3]\n[2, 3]\n")
	runErr(t, "s = {1}\ns.remove(9)", "KeyError")
}

func TestMoreStringMethods(t *testing.T) {
	expectOut(t, `
print("a-b-c".split("-"))
print("  pad  ".strip(), "xxhixx".strip("x"))
print("hello".find("ll"), "hello".find("z"))
print("aaa".count("a"), "aaa".count("aa"))
`, "['a', 'b', 'c']\npad hi\n2 -1\n3 1\n")
	runErr(t, `"a,b".split("")`, "empty separator")
	runErr(t, `"-".join([1, 2])`, "expected str")
}

func TestMoreMathFunctions(t *testing.T) {
	expectOut(t, `
import math
print(math.log2(8.0), math.log10(100.0))
print(math.atan2(0.0, 1.0), math.fmod(7.5, 2.0))
print(math.isnan(math.nan), math.isinf(math.inf), math.isnan(1.0))
print(math.tan(0.0), math.asin(0.0), math.acos(1.0), math.atan(0.0))
print(math.e > 2.7 and math.e < 2.8, math.tau > 6.28)
`, "3.0 2.0\n0.0 1.5\nTrue True False\n0.0 0.0 0.0 0.0\nTrue True\n")
	runErr(t, "import math\nmath.log(0.0) if False else math.sqrt(-4.0)", "math domain error")
}

func TestMoreRandomFunctions(t *testing.T) {
	expectOut(t, `
import random
random.seed(7)
u = random.uniform(10.0, 20.0)
print(u >= 10.0 and u <= 20.0)
l = [1, 2, 3, 4, 5]
random.shuffle(l)
print(sorted(l))
`, "True\n[1, 2, 3, 4, 5]\n")
	runErr(t, "import random\nrandom.randint(5, 1)", "ValueError")
}

func TestSysModule(t *testing.T) {
	expectOut(t, `
import sys
print(sys.maxsize > 10 ** 18)
print("minipy" in sys.version)
`, "True\nTrue\n")
}

func TestTupleAndSliceEdges(t *testing.T) {
	expectOut(t, `
t = (10, 20, 30, 40)
print(t[1:3], t[::-1], t[-1])
print("abcdef"[::2], "abcdef"[4:1:-1])
print(len(()), (1,) + (2,))
`, "(20, 30) (40, 30, 20, 10) 40\nace edc\n0 (1, 2)\n")
	runErr(t, "t = (1, 2)\nprint(t[5])", "IndexError")
	runErr(t, "x = [1][0:2:0]", "ValueError")
}

func TestRangeEdges(t *testing.T) {
	expectOut(t, `
print(len(range(10)), len(range(10, 0)), len(range(0, 10, 3)))
print(len(range(10, 0, -3)), list(range(3, -3, -2)))
print(range(2, 8))
`, "10 0 4\n4 [3, 1, -1]\nrange(2, 8)\n")
	runErr(t, "range(1, 2, 0)", "ValueError")
	runErr(t, "range()", "TypeError")
}

func TestReprForms(t *testing.T) {
	expectOut(t, `
print(repr("it's"), repr(1.0), repr(True), repr(None))
print(repr([1, (2,), {3: "x"}]))
print(repr(set()))
s = {9}
print(repr(s))
`, "'it\\'s' 1.0 True None\n[1, (2,), {3: 'x'}]\nset()\n{9}\n")
	expectOut(t, `print(str(print)[0:10] != "")`, "True\n")
}

func TestOmpRuntimeAPIInsideParallel(t *testing.T) {
	expectOut(t, `
from omp4py import *
omp_set_nested(True)
print(omp_get_nested())
omp_set_dynamic(True)
print(omp_get_dynamic())
omp_set_max_active_levels(3)
print(omp_get_max_active_levels())
print(omp_get_thread_limit() > 0, omp_get_num_procs() > 0)
omp_set_schedule("dynamic", 8)
print(omp_get_schedule())
info = [0, 0, 0]
def body():
    if omp_get_thread_num() == 0:
        info[0] = omp_get_level()
        info[1] = omp_get_ancestor_thread_num(0)
        info[2] = omp_get_team_size(1)
__omp.parallel_run(body, 3, False, False)
print(info)
omp_set_nested(False)
omp_set_dynamic(False)
`, "True\nTrue\n3\nTrue True\n('dynamic', 8)\n[1, 0, 3]\n")
	runErr(t, `
from omp4py import *
omp_set_schedule("sideways")
`, "ValueError")
}

func TestLockMisuse(t *testing.T) {
	runErr(t, `
from omp4py import *
l = omp_init_lock()
omp_unset_lock(l)
`, "RuntimeError")
	runErr(t, `
from omp4py import *
omp_set_lock("not a lock")
`, "TypeError")
	runErr(t, `
from omp4py import *
n = omp_init_nest_lock()
omp_unset_nest_lock(n)
`, "RuntimeError")
}

func TestOmpWorksharingMisuse(t *testing.T) {
	runErr(t, "__omp.single_end()", "RuntimeError")
	runErr(t, "__omp.sections_next()", "RuntimeError")
	runErr(t, "__omp.sections_last()", "RuntimeError")
	runErr(t, "__omp.ordered_begin(0)", "RuntimeError")
	runErr(t, "__omp.for_next(42)", "TypeError")
	runErr(t, "__omp.for_bounds(1, 2)", "TypeError")
	runErr(t, "__omp.for_bounds(0, 10, 0)", "ValueError")
}

func TestBoundsIndexing(t *testing.T) {
	expectOut(t, `
b = __omp.for_bounds(2, 12, 2)
__omp.for_init(b, "", None, False, False)
total = 0
while __omp.for_next(b):
    print(b[0], b[1], b[2])
    for i in range(b[0], b[1], b[2]):
        total += i
__omp.for_end(b)
print(total)
`, "2 12 2\n30\n")
	runErr(t, `
b = __omp.for_bounds(0, 4, 1)
print(b[7])
`, "IndexError")
}

func TestEnumerateZipEdges(t *testing.T) {
	expectOut(t, `
print(enumerate([], 5), zip())
print(enumerate("ab", 10))
print(zip([1, 2, 3], "ab"))
`, "[] []\n[(10, 'a'), (11, 'b')]\n[(1, 'a'), (2, 'b')]\n")
}

func TestChainedAndNestedCalls(t *testing.T) {
	expectOut(t, `
def add(a):
    def inner(b):
        return a + b
    return inner
print(add(1)(2), add("x")("y"))
fns = [add(10), add(20)]
print(fns[0](5) + fns[1](5))
`, "3 xy\n40\n")
}

func TestIsOperatorSemantics(t *testing.T) {
	expectOut(t, `
a = [1]
b = a
print(a is b, a is [1], None is None)
print(1 is 1.0, "x" is "x")
print(a is not b, 3 is not None)
`, "True False True\nFalse True\nFalse True\n")
}

func TestDeepRecursionAndReturnPaths(t *testing.T) {
	expectOut(t, `
def depth(n):
    if n == 0:
        return "bottom"
    r = depth(n - 1)
    return r
print(depth(500))
def noreturn():
    x = 1
print(noreturn())
`, "bottom\nNone\n")
}

func TestStringEscapesRoundTrip(t *testing.T) {
	out := run(t, `print("tab\there\nnew \"quote\" back\\slash")`)
	want := "tab\there\nnew \"quote\" back\\slash\n"
	if out != want {
		t.Fatalf("got %q want %q", out, want)
	}
}

func TestParallelRunSections(t *testing.T) {
	expectOut(t, `
out = [0, 0, 0]
def body():
    __omp.sections_begin(3, False)
    while True:
        s = __omp.sections_next()
        if s < 0:
            break
        out[s] = s + 1
    __omp.sections_end()
__omp.parallel_run(body, 2, False, False)
print(out)
`, "[1, 2, 3]\n")
}

func TestParallelRunMasterAndCritical(t *testing.T) {
	expectOut(t, `
count = [0, 0]
def body():
    if __omp.master():
        count[0] = count[0] + 1
    __omp.critical_enter("c")
    count[1] = count[1] + 1
    __omp.critical_exit("c")
__omp.parallel_run(body, 4, False, False)
print(count)
`, "[1, 4]\n")
}

func TestStrOfCollectionsNested(t *testing.T) {
	expectOut(t, `
print([{"k": (1, [2.5])}])
`, "[{'k': (1, [2.5])}]\n")
}

func TestGlobalAcrossFunctions(t *testing.T) {
	expectOut(t, `
state = {"calls": 0}
def bump():
    state["calls"] = state["calls"] + 1
def read():
    return state["calls"]
bump(); bump(); bump()
print(read())
`, "3\n")
}

func TestExceptionFromMethodPropagates(t *testing.T) {
	runErr(t, `
def f():
    return [1, 2][5]
try:
    f()
except KeyError:
    print("wrong handler")
`, "IndexError")
}

func TestStringContainsAndComparisonChain(t *testing.T) {
	expectOut(t, `
words = "the quick brown fox".split()
hits = 0
for w in words:
    if "o" in w:
        hits += 1
print(hits, "a" < "b" < "c" < "b")
`, "2 False\n")
}

func TestLargeIntArithmetic(t *testing.T) {
	expectOut(t, `
big = 2 ** 62
print(big // 2 ** 10 == 2 ** 52)
print((-2) ** 3, 10 ** 0)
`, "True\n-8 1\n")
}

func TestUnparseViaDumpOutputRunnable(t *testing.T) {
	// Sanity that runErr distinguishes messages (guards helper).
	if !strings.Contains("ZeroDivisionError: x", "ZeroDivisionError") {
		t.Fatal("helper sanity")
	}
}

// TestSessionDoesNotRetainModules: a long-lived interpreter that runs
// module after module (a serve session) must not hold every module's
// AST through the def-scope cache. Functions defined by earlier modules
// still work: they carry their own scope.
func TestSessionDoesNotRetainModules(t *testing.T) {
	var buf bytes.Buffer
	in := New(Options{Stdout: &buf, Layer: rt.LayerAtomic, Getenv: func(string) string { return "" }})
	if err := in.RunSource("def keep(x):\n    def inner():\n        return x + 1\n    return inner()\n", "first.py"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := in.RunSource("def f(x):\n    return x * 2\nprint(f(keep(20)))\n", "next.py"); err != nil {
			t.Fatal(err)
		}
	}
	if want := strings.Repeat("42\n", 50); buf.String() != want {
		t.Fatalf("stdout = %q", buf.String())
	}
	if n := len(in.scopes); n > 2 {
		t.Fatalf("scope cache holds %d defs after 51 modules, want those of the last run", n)
	}
}
