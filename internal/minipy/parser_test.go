package minipy

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func parse(t *testing.T, src string) *Module {
	t.Helper()
	m, err := Parse(src, "test.py")
	if err != nil {
		t.Fatalf("Parse failed: %v\nsource:\n%s", err, src)
	}
	return m
}

func parseFail(t *testing.T, src, wantSub string) {
	t.Helper()
	_, err := Parse(src, "test.py")
	if err == nil {
		t.Fatalf("Parse(%q) succeeded, want error containing %q", src, wantSub)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("error %q does not contain %q", err, wantSub)
	}
}

func TestParseFunction(t *testing.T) {
	m := parse(t, `
def add(a, b=2, c: float = 0.5) -> float:
    return a + b + c
`)
	if len(m.Body) != 1 {
		t.Fatalf("body len %d", len(m.Body))
	}
	fd, ok := m.Body[0].(*FuncDef)
	if !ok {
		t.Fatalf("not a FuncDef: %T", m.Body[0])
	}
	if fd.Name != "add" || len(fd.Params) != 3 {
		t.Fatalf("fd = %+v", fd)
	}
	if fd.Params[1].Default == nil || fd.Params[2].Annotation == nil {
		t.Fatal("defaults/annotations missing")
	}
	if fd.Returns == nil {
		t.Fatal("return annotation missing")
	}
}

func TestParseDecorators(t *testing.T) {
	m := parse(t, `
@omp
def f():
    pass

@omp(compile=True)
def g():
    pass
`)
	f := m.Body[0].(*FuncDef)
	if len(f.Decorators) != 1 {
		t.Fatalf("f decorators: %d", len(f.Decorators))
	}
	if _, ok := f.Decorators[0].(*Name); !ok {
		t.Fatalf("f decorator type %T", f.Decorators[0])
	}
	g := m.Body[1].(*FuncDef)
	call, ok := g.Decorators[0].(*Call)
	if !ok {
		t.Fatalf("g decorator type %T", g.Decorators[0])
	}
	if len(call.Keywords) != 1 || call.Keywords[0].Name != "compile" {
		t.Fatalf("g decorator keywords %+v", call.Keywords)
	}
}

func TestParseIfElifElse(t *testing.T) {
	m := parse(t, `
if a:
    x = 1
elif b:
    x = 2
else:
    x = 3
`)
	node := m.Body[0].(*If)
	if len(node.Else) != 1 {
		t.Fatalf("else len %d", len(node.Else))
	}
	elif, ok := node.Else[0].(*If)
	if !ok {
		t.Fatalf("elif type %T", node.Else[0])
	}
	if len(elif.Else) != 1 {
		t.Fatalf("final else len %d", len(elif.Else))
	}
}

func TestParseLoops(t *testing.T) {
	m := parse(t, `
for i in range(10):
    if i > 5:
        break
    continue
while x < 3:
    x += 1
`)
	f := m.Body[0].(*For)
	if name, ok := f.Target.(*Name); !ok || name.ID != "i" {
		t.Fatalf("for target %+v", f.Target)
	}
	w := m.Body[1].(*While)
	if _, ok := w.Body[0].(*AugAssign); !ok {
		t.Fatalf("while body %T", w.Body[0])
	}
}

func TestParseForTupleTarget(t *testing.T) {
	m := parse(t, "for k, v in items:\n    pass\n")
	f := m.Body[0].(*For)
	tp, ok := f.Target.(*TupleLit)
	if !ok || len(tp.Elts) != 2 {
		t.Fatalf("target %+v", f.Target)
	}
}

func TestParseWithDirective(t *testing.T) {
	m := parse(t, `
with omp("parallel for reduction(+:pi_value)"):
    for i in range(n):
        pi_value += 1.0
`)
	w := m.Body[0].(*With)
	call, ok := w.Items[0].Context.(*Call)
	if !ok {
		t.Fatalf("with context %T", w.Items[0].Context)
	}
	arg, ok := call.Args[0].(*StrLit)
	if !ok || !strings.Contains(arg.V, "reduction") {
		t.Fatalf("directive arg %+v", call.Args[0])
	}
}

func TestParseWithAs(t *testing.T) {
	m := parse(t, "with open(f) as fh, lock:\n    pass\n")
	w := m.Body[0].(*With)
	if len(w.Items) != 2 {
		t.Fatalf("items %d", len(w.Items))
	}
	if w.Items[0].Vars == nil || w.Items[1].Vars != nil {
		t.Fatalf("as vars wrong: %+v", w.Items)
	}
}

func TestParseAssignments(t *testing.T) {
	m := parse(t, `
x = 1
a, b = 1, 2
a = b = 3
m[0] = 5
p.q = 6
x: int = 7
y: float
`)
	if _, ok := m.Body[0].(*Assign); !ok {
		t.Fatal("simple assign")
	}
	multi := m.Body[1].(*Assign)
	if _, ok := multi.Targets[0].(*TupleLit); !ok {
		t.Fatal("tuple target")
	}
	chained := m.Body[2].(*Assign)
	if len(chained.Targets) != 2 {
		t.Fatalf("chained targets %d", len(chained.Targets))
	}
	if _, ok := m.Body[3].(*Assign).Targets[0].(*Index); !ok {
		t.Fatal("index target")
	}
	if _, ok := m.Body[4].(*Assign).Targets[0].(*Attribute); !ok {
		t.Fatal("attribute target")
	}
	ann := m.Body[5].(*AnnAssign)
	if ann.Value == nil {
		t.Fatal("annotated assign value")
	}
	bare := m.Body[6].(*AnnAssign)
	if bare.Value != nil {
		t.Fatal("bare annotation should have no value")
	}
}

func TestParseAssignToLiteralFails(t *testing.T) {
	parseFail(t, "1 = x\n", "cannot assign")
	parseFail(t, "f() = x\n", "cannot assign")
	parseFail(t, "a + b = x\n", "cannot assign")
}

func TestParsePrecedence(t *testing.T) {
	m := parse(t, "r = 1 + 2 * 3 ** 2 - -4\n")
	// 1 + (2 * (3 ** 2)) - (-4)
	v := m.Body[0].(*Assign).Value
	top, ok := v.(*BinOp)
	if !ok || top.Op != "-" {
		t.Fatalf("top %+v", v)
	}
	left := top.L.(*BinOp)
	if left.Op != "+" {
		t.Fatalf("left op %s", left.Op)
	}
	mul := left.R.(*BinOp)
	if mul.Op != "*" {
		t.Fatalf("mul op %s", mul.Op)
	}
	pow := mul.R.(*BinOp)
	if pow.Op != "**" {
		t.Fatalf("pow op %s", pow.Op)
	}
	if neg, ok := top.R.(*UnaryOp); !ok || neg.Op != "-" {
		t.Fatalf("unary %+v", top.R)
	}
}

func TestParseChainedComparison(t *testing.T) {
	m := parse(t, "ok = 0 <= i < n\n")
	cmp := m.Body[0].(*Assign).Value.(*Compare)
	if len(cmp.Ops) != 2 || cmp.Ops[0] != "<=" || cmp.Ops[1] != "<" {
		t.Fatalf("ops %v", cmp.Ops)
	}
}

func TestParseBoolOpsAndNot(t *testing.T) {
	m := parse(t, "r = a and not b or c in d and e not in f\n")
	or, ok := m.Body[0].(*Assign).Value.(*BoolOp)
	if !ok || or.Op != "or" {
		t.Fatalf("top %+v", m.Body[0].(*Assign).Value)
	}
	if len(or.Values) != 2 {
		t.Fatalf("or arity %d", len(or.Values))
	}
}

func TestParseCollections(t *testing.T) {
	m := parse(t, `
l = [1, 2, 3]
d = {"a": 1, "b": 2}
t = (1, 2)
s = {1, 2}
e = {}
single = (5)
tup1 = 5,
`)
	if l := m.Body[0].(*Assign).Value.(*ListLit); len(l.Elts) != 3 {
		t.Fatal("list")
	}
	if d := m.Body[1].(*Assign).Value.(*DictLit); len(d.Keys) != 2 {
		t.Fatal("dict")
	}
	if tp := m.Body[2].(*Assign).Value.(*TupleLit); len(tp.Elts) != 2 {
		t.Fatal("tuple")
	}
	if st := m.Body[3].(*Assign).Value.(*SetLit); len(st.Elts) != 2 {
		t.Fatal("set")
	}
	if d := m.Body[4].(*Assign).Value.(*DictLit); len(d.Keys) != 0 {
		t.Fatal("empty dict")
	}
	if _, ok := m.Body[5].(*Assign).Value.(*IntLit); !ok {
		t.Fatal("(5) should be an int, not a tuple")
	}
	if tp := m.Body[6].(*Assign).Value.(*TupleLit); len(tp.Elts) != 1 {
		t.Fatal("one-tuple")
	}
}

func TestParseSubscripts(t *testing.T) {
	m := parse(t, `
a = m[i]
b = m[i][j]
c = m[1:5]
d = m[:n]
e = m[::2]
f = m[a:b:c]
`)
	if _, ok := m.Body[0].(*Assign).Value.(*Index); !ok {
		t.Fatal("index")
	}
	inner := m.Body[1].(*Assign).Value.(*Index)
	if _, ok := inner.X.(*Index); !ok {
		t.Fatal("nested index")
	}
	sl := m.Body[2].(*Assign).Value.(*SliceExpr)
	if sl.Lo == nil || sl.Hi == nil || sl.Step != nil {
		t.Fatal("slice lo:hi")
	}
	sl = m.Body[3].(*Assign).Value.(*SliceExpr)
	if sl.Lo != nil || sl.Hi == nil {
		t.Fatal("slice :n")
	}
	sl = m.Body[4].(*Assign).Value.(*SliceExpr)
	if sl.Lo != nil || sl.Hi != nil || sl.Step == nil {
		t.Fatal("slice ::2")
	}
	sl = m.Body[5].(*Assign).Value.(*SliceExpr)
	if sl.Lo == nil || sl.Hi == nil || sl.Step == nil {
		t.Fatal("full slice")
	}
}

func TestParseCallsAndAttributes(t *testing.T) {
	m := parse(t, "r = obj.method(1, x, key=2).field[3]\n")
	idx := m.Body[0].(*Assign).Value.(*Index)
	attr := idx.X.(*Attribute)
	if attr.Name != "field" {
		t.Fatalf("attr %s", attr.Name)
	}
	call := attr.X.(*Call)
	if len(call.Args) != 2 || len(call.Keywords) != 1 {
		t.Fatalf("call %+v", call)
	}
}

func TestParseTryExceptFinally(t *testing.T) {
	m := parse(t, `
try:
    risky()
except ValueError as e:
    handle(e)
except:
    fallback()
finally:
    cleanup()
`)
	tr := m.Body[0].(*Try)
	if len(tr.Handlers) != 2 {
		t.Fatalf("handlers %d", len(tr.Handlers))
	}
	if tr.Handlers[0].Name != "e" || tr.Handlers[1].Type != nil {
		t.Fatalf("handlers %+v", tr.Handlers)
	}
	if len(tr.Final) != 1 {
		t.Fatal("finally missing")
	}
	parseFail(t, "try:\n    pass\n", "except or finally")
}

func TestParseImports(t *testing.T) {
	m := parse(t, `
import math, time as t
from omp4py import *
from math import sqrt, floor as fl
`)
	imp := m.Body[0].(*Import)
	if imp.Names[1].AsName != "t" {
		t.Fatalf("import as: %+v", imp.Names)
	}
	star := m.Body[1].(*FromImport)
	if !star.Star || star.Module != "omp4py" {
		t.Fatalf("star import %+v", star)
	}
	from := m.Body[2].(*FromImport)
	if len(from.Names) != 2 || from.Names[1].AsName != "fl" {
		t.Fatalf("from import %+v", from.Names)
	}
}

func TestParseGlobalNonlocal(t *testing.T) {
	m := parse(t, "def f():\n    global a, b\n    nonlocal c\n")
	fd := m.Body[0].(*FuncDef)
	g := fd.Body[0].(*Global)
	if !reflect.DeepEqual(g.Names, []string{"a", "b"}) {
		t.Fatalf("global %v", g.Names)
	}
	n := fd.Body[1].(*Nonlocal)
	if !reflect.DeepEqual(n.Names, []string{"c"}) {
		t.Fatalf("nonlocal %v", n.Names)
	}
}

func TestParseLambdaAndIfExp(t *testing.T) {
	m := parse(t, "f = lambda x, y=2: x + y\nr = a if c else b\n")
	lam := m.Body[0].(*Assign).Value.(*Lambda)
	if len(lam.Params) != 2 || lam.Params[1].Default == nil {
		t.Fatalf("lambda %+v", lam)
	}
	ife := m.Body[1].(*Assign).Value.(*IfExp)
	if _, ok := ife.Cond.(*Name); !ok {
		t.Fatalf("ifexp %+v", ife)
	}
}

func TestParseSemicolons(t *testing.T) {
	m := parse(t, "a = 1; b = 2; c = 3\n")
	if len(m.Body) != 3 {
		t.Fatalf("body %d", len(m.Body))
	}
}

func TestParseRaiseAssertDel(t *testing.T) {
	m := parse(t, `
raise ValueError("bad")
raise
assert x > 0, "must be positive"
assert ok
del d["k"], x
`)
	r := m.Body[0].(*Raise)
	if r.Exc == nil {
		t.Fatal("raise expr missing")
	}
	if m.Body[1].(*Raise).Exc != nil {
		t.Fatal("bare raise")
	}
	a := m.Body[2].(*Assert)
	if a.Msg == nil {
		t.Fatal("assert msg")
	}
	if m.Body[3].(*Assert).Msg != nil {
		t.Fatal("assert without msg")
	}
	d := m.Body[4].(*Del)
	if len(d.Targets) != 2 {
		t.Fatalf("del targets %d", len(d.Targets))
	}
}

func TestParseInlineSuite(t *testing.T) {
	m := parse(t, "if a: x = 1; y = 2\n")
	node := m.Body[0].(*If)
	if len(node.Body) != 2 {
		t.Fatalf("inline suite %d stmts", len(node.Body))
	}
}

func TestParseErrors(t *testing.T) {
	parseFail(t, "def f(:\n    pass\n", "expected")
	parseFail(t, "if a\n    pass\n", "expected :")
	parseFail(t, "for i range(3):\n    pass\n", "expected in")
	parseFail(t, "f(a, key=1, b)\n", "positional argument after keyword")
	parseFail(t, "def f():\n", "INDENT")
	parseFail(t, "@dec\nx = 1\n", "must be followed by a function")
}

func TestParseExprString(t *testing.T) {
	e, err := ParseExprString("n > 30")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.(*Compare); !ok {
		t.Fatalf("type %T", e)
	}
	if _, err := ParseExprString("n >"); err == nil {
		t.Fatal("expected error")
	}
	if _, err := ParseExprString("a b"); err == nil {
		t.Fatal("expected trailing token error")
	}
}

// TestUnparseRoundTrip: parse → unparse → parse must be a structural
// fixpoint (ignoring positions).
func TestUnparseRoundTrip(t *testing.T) {
	srcs := []string{
		"x = 1 + 2 * 3 ** 2 - -4\n",
		"r = (a + b) * c\n",
		"ok = 0 <= i < n and not done or x in xs\n",
		"def f(a, b=2, c: float = 0.5) -> float:\n    return a + b + c\n",
		"@omp\ndef g():\n    with omp(\"parallel\"):\n        pass\n",
		"for i in range(0, n, 2):\n    total += v[i]\n",
		"while x < 3:\n    x += 1\nelse_done = 1\n",
		"if a:\n    x = 1\nelif b:\n    x = 2\nelse:\n    x = 3\n",
		"l = [1, 2.5, \"s\", None, True]\nd = {\"k\": [1], 2: (3, 4)}\n",
		"try:\n    f()\nexcept ValueError as e:\n    g(e)\nfinally:\n    h()\n",
		"a, b = b, a\nm[i][j] = k\np.q.r = 2\n",
		"s = x[1:5:2] + y[::3] + z[:n]\n",
		"f = lambda x, y=1: x * y\nr = a if c else b\n",
		"import math\nfrom omp4py import *\nglobal_x = math.sqrt(2)\n",
		"assert x > 0, \"positive\"\nraise ValueError(\"no\")\n",
		"def outer():\n    x = 0\n    def inner():\n        nonlocal x\n        x += 1\n    inner()\n    return x\n",
		"t1 = 5,\nneg = -x ** 2\nquot = a // b % c\n",
		"bits = a & b | c ^ d << 2 >> 1\n",
		"s = \"café ✓\"\né = s + 'naïve\\t☃' + \"\"\"\U0001D6D1\n\"q\" \"\"\"\nprint(é, \"\\q\\é\")\n",
	}
	for _, src := range srcs {
		m1 := parse(t, src)
		out1 := Unparse(m1)
		m2, err := Parse(out1, "roundtrip.py")
		if err != nil {
			t.Fatalf("re-parse failed: %v\nunparsed:\n%s", err, out1)
		}
		out2 := Unparse(m2)
		if out1 != out2 {
			t.Fatalf("round trip not a fixpoint.\nsource:\n%s\nfirst:\n%s\nsecond:\n%s", src, out1, out2)
		}
	}
}

func TestParseBenchmarkShapedProgram(t *testing.T) {
	// A realistic OMP4Py program: the paper's Fig. 1.
	src := `
from omp4py import *

@omp
def pi(n):
    w = 1.0 / n
    pi_value = 0.0
    with omp("parallel for reduction(+:pi_value)"):
        for i in range(n):
            local = (i + 0.5) * w
            pi_value += 4.0 / (1.0 + local * local)
    return pi_value * w

print(pi(10000000))
`
	m := parse(t, src)
	if len(m.Body) != 3 {
		t.Fatalf("top-level stmts: %d", len(m.Body))
	}
	fd := m.Body[1].(*FuncDef)
	if fd.Name != "pi" || len(fd.Decorators) != 1 {
		t.Fatalf("pi def: %+v", fd)
	}
	// Fig. 4: tasks.
	src2 := `
@omp
def fibonacci(n):
    if n <= 1:
        return n
    fib1 = 0
    fib2 = 0
    with omp("task"):
        fib1 = fibonacci(n - 1)
    with omp("task"):
        fib2 = fibonacci(n - 2)
    omp("taskwait")
    return fib1 + fib2
`
	parse(t, src2)
}

// TestBinaryPrecedenceMatrix parses a op1 b op2 c for every ordered
// pair of binary operators and checks the grouping the precedence
// table implies: the tighter operator groups first, equal levels group
// to the left except for the right-associative **.
func TestBinaryPrecedenceMatrix(t *testing.T) {
	var ops []string
	for op, p := range binPrec {
		if p >= binaryPrecMin && p <= binaryPrecMax || op == "**" {
			ops = append(ops, op)
		}
	}
	// shape renders e fully parenthesized.
	var shape func(e Expr) string
	shape = func(e Expr) string {
		switch x := e.(type) {
		case *BinOp:
			return "(" + shape(x.L) + " " + x.Op + " " + shape(x.R) + ")"
		case *UnaryOp:
			return "(" + x.Op + shape(x.X) + ")"
		case *Name:
			return x.ID
		}
		return fmt.Sprintf("<%T>", e)
	}
	check := func(src, want string) {
		e, err := ParseExprString(src)
		if err != nil {
			t.Errorf("%s: %v", src, err)
			return
		}
		if got := shape(e); got != want {
			t.Errorf("%s parses as %s, want %s", src, got, want)
		}
	}
	for _, op1 := range ops {
		for _, op2 := range ops {
			p1, p2 := binPrec[op1], binPrec[op2]
			want := "((a " + op1 + " b) " + op2 + " c)"
			if p1 < p2 || p1 == p2 && op1 == "**" {
				want = "(a " + op1 + " (b " + op2 + " c))"
			}
			check("a "+op1+" b "+op2+" c", want)
		}
	}
	check("-a ** b", "(-(a ** b))")
	check("a ** -b", "(a ** (-b))")
}
