package compile

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/omp4go/omp4go/internal/interp"
	"github.com/omp4go/omp4go/internal/minipy"
	"github.com/omp4go/omp4go/internal/rt"
	"github.com/omp4go/omp4go/internal/transform"
)

// The three forms every typed loop program must agree across.
const (
	formIR      = "ir"
	formOff     = "kernels-off"
	formInterp  = "interp"
	irTestEntry = "f"
)

var irForms = []string{formIR, formOff, formInterp}

// outcome is what one run of a program produced: the flattened result
// of f(), or the exception it raised.
type outcome struct {
	vals    []interp.Value
	out     string
	errType string
	errMsg  string
	errLine int
	irLoops int64 // loops that ran as typed loop IR for the first time
}

func (o outcome) String() string {
	if o.errType != "" {
		return fmt.Sprintf("%s: %s (line %d)", o.errType, o.errMsg, o.errLine)
	}
	return fmt.Sprintf("%v %q", o.vals, o.out)
}

// same compares results bit for bit (floats by Float64bits, so -0.0 and
// NaN payloads count) and errors by type, message and line.
func (o outcome) same(p outcome) bool {
	if o.errType != p.errType || o.errMsg != p.errMsg || o.errLine != p.errLine ||
		o.out != p.out || len(o.vals) != len(p.vals) {
		return false
	}
	for i := range o.vals {
		a, aIsF := o.vals[i].(float64)
		b, bIsF := p.vals[i].(float64)
		if aIsF != bIsF || aIsF && math.Float64bits(a) != math.Float64bits(b) || !aIsF && o.vals[i] != p.vals[i] {
			return false
		}
	}
	return true
}

func flatten(v interp.Value, into []interp.Value) []interp.Value {
	switch t := v.(type) {
	case *interp.List:
		for _, e := range t.Values() {
			into = flatten(e, into)
		}
		return into
	case *interp.Tuple:
		for _, e := range t.Elts {
			into = flatten(e, into)
		}
		return into
	}
	return append(into, v)
}

// CountIRLoops runs fn and reports how many distinct source loops
// (nested ones included) entered as typed loop IR meanwhile. Exported
// for the package's external tests.
func CountIRLoops(fn func()) int64 {
	var seen sync.Map
	var loops atomic.Int64
	irEntered = func(p *irProg) {
		if _, dup := seen.LoadOrStore(p, true); !dup {
			loops.Add(int64(p.loops))
		}
	}
	defer func() { irEntered = nil }()
	fn()
	return loops.Load()
}

// runForm loads src in one form and calls f(args...).
func runForm(t *testing.T, src, form string, budget *interp.Budget, args ...interp.Value) outcome {
	t.Helper()
	mod, err := minipy.Parse(src, "test.py")
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	if _, err := transform.Module(mod); err != nil {
		t.Fatalf("transform: %v\n%s", err, src)
	}
	var buf bytes.Buffer
	in := interp.New(interp.Options{Stdout: &buf, Layer: rt.LayerAtomic, Getenv: func(string) string { return "" }})
	defer in.Runtime().Shutdown()
	switch form {
	case formIR:
		err = Install(in, mod, Options{Typed: true, Kernels: KernelsOn})
	case formOff:
		err = Install(in, mod, Options{Typed: true, Kernels: KernelsOff})
	}
	if err != nil {
		t.Fatalf("compile (%s): %v\n%s", form, err, src)
	}
	var v interp.Value
	loops := CountIRLoops(func() {
		if err = in.RunModule(mod); err == nil {
			if budget != nil {
				in.SetBudget(*budget)
			}
			v, err = in.CallFunction(irTestEntry, args...)
		}
	})
	o := outcome{out: buf.String(), irLoops: loops}
	var pe *interp.PyError
	var be *interp.BudgetError
	switch {
	case errors.As(err, &pe):
		o.errType, o.errMsg, o.errLine = pe.Type, pe.Msg, pe.Pos.Line
	case errors.As(err, &be):
		o.errType, o.errMsg, o.errLine = "budget", be.Kind, be.Pos.Line
	case err != nil:
		o.errType, o.errMsg = "error", err.Error()
	default:
		o.vals = flatten(v, nil)
	}
	return o
}

// agree runs src in all three forms, requires identical outcomes and
// returns the IR form's.
func agree(t *testing.T, src string, args ...interp.Value) outcome {
	t.Helper()
	var got [3]outcome
	for k, form := range irForms {
		got[k] = runForm(t, src, form, nil, args...)
	}
	if !got[0].same(got[1]) || !got[0].same(got[2]) {
		t.Fatalf("forms disagree:\n  ir:          %v\n  kernels-off: %v\n  interp:      %v\nsource:\n%s", got[0], got[1], got[2], src)
	}
	if got[1].irLoops != 0 || got[2].irLoops != 0 {
		t.Fatalf("IR ran outside the IR form: kernels-off %d, interp %d loops", got[1].irLoops, got[2].irLoops)
	}
	return got[0]
}

// nestGen generates typed loop nests whose three forms must agree bit
// for bit: the int expressions float contexts read pass 2**53 (and
// wrap past 2**63) on the way, which only int arithmetic gets right,
// while every value that reaches a float stays small; divisors are
// nonzero, and in the worksharing template an iteration writes only its own elements and
// reads only lists no iteration writes. A trusted declaration (an
// untyped, call-free initializer; see TestDeclarationTrust for where
// the compiled forms then coerce or raise and the interpreter does not)
// only ever receives a value of its declared kind, for which the
// coercion is the identity; values without static type reaching a
// declared variable any other way box it, and misann programs do
// exactly that.
type nestGen struct {
	r      *rand.Rand
	lines  []string
	serial bool // the serial template: return is allowed
	// whiles lets nests contain while loops. Such a nest lowers only if
	// the boxed names it reads are the frame's own, and in a worksharing
	// loop n, seed and w are the enclosing function's: the program then
	// reads its per-iteration typed copies m, sd and wl instead.
	whiles bool
	// misann adds mis-annotated statements: the declared z and kz also
	// get values without static type outside their declarations (a plain
	// element assignment, a call result, a generic for target), which
	// boxes them — wherever they are then read or assigned, all three
	// forms must still agree. So does the declared xi, into which a
	// nested function stores a float: the binding is then a float one in
	// every function of the tree.
	misann bool
	// sharing gives the worksharing loop annotated data-sharing clauses:
	// the float pt is private, the float fp and the int fk firstprivate,
	// the int hi a max reduction, and with last the int lp lastprivate
	// (which takes the loop off the kernel path onto the bridge). Each
	// copy must inherit its original's declared type in the compiled
	// forms and change no result.
	sharing, last bool
	ivars         []string // int loop variables in scope, outermost first
	loops         int
	// noElem marks an int expression that a float context will
	// evaluate. It keeps int-list elements out of it: the IR wants one
	// storage kind per list, and c is read as int storage elsewhere;
	// an atom there is now and then a product above 2**53 instead.
	noElem bool
	// noCall keeps calls and conditional expressions out of an
	// expression: the initializer of a declaration that is to be
	// trusted (typed.go's numericSource) has neither.
	noCall bool
}

func (g *nestGen) pick(xs ...string) string { return xs[g.r.Intn(len(xs))] }

// outer names one of the function-level scalars n, seed and w, or its
// typed copy in a program with while loops.
func (g *nestGen) outer(name string) string {
	if g.whiles {
		return map[string]string{"n": "m", "seed": "sd", "w": "wl"}[name]
	}
	return name
}

func (g *nestGen) emit(depth int, format string, args ...any) {
	g.lines = append(g.lines, strings.Repeat("    ", depth)+fmt.Sprintf(format, args...))
}

// idx is an always-valid subscript of a length-n list, now and then a
// negative one that wraps.
func (g *nestGen) idx() string {
	e := fmt.Sprintf("(%s) %% %s", g.iexpr(1), g.outer("n"))
	if g.r.Intn(5) == 0 {
		return "-1 - " + e
	}
	return e
}

func (g *nestGen) iatom() string {
	switch g.r.Intn(6) {
	case 0:
		return fmt.Sprint(g.r.Intn(9) + 1)
	case 1:
		return g.outer(g.pick("seed", "n"))
	case 2:
		if g.misann {
			return g.pick("k0", "k1", "kz")
		}
		if g.sharing {
			return g.pick("k0", "k1", "fk")
		}
		return g.pick("k0", "k1")
	case 3:
		if !g.noElem {
			return "c[" + g.idx() + "]"
		}
		// An int product above 2**53 (wrapping past 2**63 for large
		// loop variables), which float64 would round.
		return fmt.Sprintf("(%s * 9007199254740993 %% 1009)", g.ivars[g.r.Intn(len(g.ivars))])
	}
	return g.ivars[g.r.Intn(len(g.ivars))]
}

// iexpr is an int-typed expression of bounded magnitude.
func (g *nestGen) iexpr(d int) string {
	if d <= 0 {
		return g.iatom()
	}
	l, r := g.iexpr(d-1), g.iexpr(d-1)
	k := g.r.Intn(12)
	if g.noCall && (k >= 7 && k != 10) {
		k %= 7
	}
	switch k {
	case 0:
		return fmt.Sprintf("(%s + %s)", l, r)
	case 1:
		return fmt.Sprintf("(%s - %s)", l, r)
	case 2:
		return fmt.Sprintf("(%s %% 50) * (%s %% 50)", l, r)
	case 3:
		return fmt.Sprintf("(%s // %d)", l, g.r.Intn(5)+2)
	case 4:
		return fmt.Sprintf("(%s %% %d)", l, g.r.Intn(7)+2)
	case 5:
		return fmt.Sprintf("(%s %s %s)", l, g.pick("&", "|", "^"), r)
	case 6:
		return fmt.Sprintf("((%s %% 64) %s %d)", l, g.pick("<<", ">>"), g.r.Intn(4))
	case 7:
		return fmt.Sprintf("%s(%s, %s)", g.pick("min", "max"), l, r)
	case 8:
		return fmt.Sprintf("abs(%s)", l)
	case 9:
		return fmt.Sprintf("int(%s + 0.5)", g.fexpr(d-1))
	case 10:
		return fmt.Sprintf("(-%s)", l)
	}
	return fmt.Sprintf("(%s if %s else %s)", l, g.cond(d-1), r)
}

func (g *nestGen) fatom() string {
	switch g.r.Intn(6) {
	case 0:
		return fmt.Sprintf("%.3f", float64(g.r.Intn(40)-8)/8)
	case 1:
		if g.misann {
			return g.pick("x0", "x1", "z", "xi")
		}
		if g.sharing {
			return g.pick("x0", "x1", "pt", "fp")
		}
		return g.pick("x0", "x1", g.outer("w"))
	case 2:
		return "b[" + g.idx() + "]"
	case 3:
		return "a[" + g.ivars[0] + "]"
	}
	defer func(was bool) { g.noElem = was }(g.noElem)
	g.noElem = true
	if g.noCall {
		return fmt.Sprintf("(%s * 0.5)", g.iexpr(1))
	}
	return fmt.Sprintf(g.pick("(%s * 0.5)", "float(%s)"), g.iexpr(1))
}

// fexpr is a float-typed expression: every operator has a float-typed
// operand, so no form leaves the float path.
func (g *nestGen) fexpr(d int) string {
	if d <= 0 {
		return g.fatom()
	}
	l, r := g.fexpr(d-1), g.fexpr(d-1)
	k := g.r.Intn(12)
	if g.noCall && (k >= 7 && k != 10) {
		k %= 7
	}
	switch k {
	case 0:
		return fmt.Sprintf("(%s + %s)", l, r)
	case 1:
		return fmt.Sprintf("(%s - %s)", l, r)
	case 2:
		return fmt.Sprintf("(%s * %s)", l, r)
	case 3:
		return fmt.Sprintf("(%s + %s * %s)", l, r, g.fatom())
	case 4:
		return fmt.Sprintf("(%s / (1.0 + %s * %s))", l, r, r)
	case 5:
		return fmt.Sprintf("(%s // 0.75)", l)
	case 6:
		return fmt.Sprintf("(%s %% 2.5)", l)
	case 7:
		return fmt.Sprintf("%s(%s, %s)", g.pick("min", "max"), l, r)
	case 8:
		return fmt.Sprintf("math.sqrt(abs(%s))", l)
	case 9:
		return fmt.Sprintf("math.%s(%s)", g.pick("fabs", "sin", "cos", "atan"), l)
	case 10:
		return fmt.Sprintf("(-%s)", l)
	}
	return fmt.Sprintf("(%s if %s else %s)", l, g.cond(d-1), r)
}

// cond compares typed operands: a comparison of two list elements has
// no static type and would take the boxed path.
func (g *nestGen) cond(d int) string {
	defer func(was bool) { g.noElem = was }(g.noElem)
	g.noElem = true
	op := g.pick("<", "<=", "==", "!=", ">", ">=")
	switch g.r.Intn(5) {
	case 0:
		return fmt.Sprintf("%s %s %s", g.fexpr(d), op, g.fexpr(d))
	case 1:
		return fmt.Sprintf("%s %s %s and not %s %% 3 == 0", g.iexpr(d), op, g.iexpr(d), g.iexpr(0))
	case 2:
		return fmt.Sprintf("%s %% 2 == 0 or %s %s %s", g.iexpr(0), g.iexpr(d), op, g.fexpr(d))
	}
	return fmt.Sprintf("%s %s %s", g.iexpr(d), op, g.iexpr(d))
}

// declared is the initializer of an int or float declaration. A slot
// keeps its declared type against an initializer without static type
// only if that is call-free arithmetic over elements and names (the
// trusted declaration); with calls in it, it is converted explicitly.
func (g *nestGen) declared(typ string, d int) string {
	expr := g.iexpr
	if typ == "float" {
		expr = g.fexpr
	}
	if g.r.Intn(2) == 0 {
		return typ + "(" + expr(d) + ")"
	}
	defer func(was bool) { g.noCall = was }(g.noCall)
	g.noCall = true
	return expr(d)
}

// stmts writes a few statements at the given nesting depth; inner says
// how many more loop levels may open below, inLoop whether break and
// continue have a loop of the nest to act on.
func (g *nestGen) stmts(depth, inner int, inLoop bool) {
	own := g.ivars[0]
	for s := g.r.Intn(3) + 2; s > 0; s-- {
		switch k := g.r.Intn(12); {
		case k == 0:
			g.emit(depth, "x%d: float = %s", g.r.Intn(2), g.declared("float", 2))
		case k == 1:
			g.emit(depth, "k%d: int = (%s) %% 1000", g.r.Intn(2), g.declared("int", 2))
		case k == 2:
			g.emit(depth, "a[%s] = 0.5 * %s", own, g.fexpr(2))
		case k == 3:
			g.emit(depth, "a[%s] %s 0.25 + %s", own, g.pick("+=", "-=", "*="), g.fexpr(1))
		case k == 4:
			g.emit(depth, "d[%s] = (%s) %% 1000", own, g.iexpr(2))
		case k == 5:
			g.emit(depth, "k1: int = (%s) %% 100", g.declared("int", 1))
			g.emit(depth, "cnt += k1")
		case k == 6:
			g.emit(depth, "x%d %s %s", g.r.Intn(2), g.pick("+=", "-="), g.fexpr(1))
		case k == 7:
			g.emit(depth, "if %s:", g.cond(1))
			g.stmts(depth+1, inner, inLoop)
			if g.r.Intn(2) == 0 {
				g.emit(depth, "else:")
				g.stmts(depth+1, inner, inLoop)
			}
		case k == 8 && inLoop:
			g.emit(depth, "if %s:", g.cond(0))
			g.emit(depth+1, "%s", g.pick("break", "continue"))
		case k == 9 && g.serial:
			g.emit(depth, "if (%s) %% 23 == %d:", g.iexpr(0), g.r.Intn(23))
			g.emit(depth+1, "%s", g.pick("return x0 * 2.0 + a[i]", "return k0 * 2 + cnt", "return None", "return"))
		case k == 10 && g.misann:
			g.misannotate(depth)
		case inner > 0:
			g.loop(depth, inner-1)
		default:
			g.emit(depth, "cnt += 1")
		}
	}
}

// misannotate gives z or kz a value without static type outside its
// declaration.
func (g *nestGen) misannotate(depth int) {
	switch g.r.Intn(4) {
	case 0:
		g.emit(depth, "z = b[%s]", g.idx())
	case 1:
		g.emit(depth, "kz = c[%s]", g.idx())
	case 2:
		g.emit(depth, "z = first(%s, x0)", g.fexpr(1))
	default:
		g.emit(depth, "for v in c:")
		g.emit(depth+1, "kz = v")
	}
}

// loop opens one more nested loop: a counted range (sometimes stepped
// or descending) or a typed while.
func (g *nestGen) loop(depth, inner int) {
	g.loops++
	v := fmt.Sprintf("j%d", g.loops)
	bound := fmt.Sprintf("(%s) %% 6", g.iexpr(1))
	if g.r.Intn(3) == 0 && g.whiles {
		g.emit(depth, "%s: int = 0", v)
		g.emit(depth, "while %s < %s:", v, bound)
		g.ivars = append(g.ivars, v)
		g.emit(depth+1, "%s += 1", v)
	} else {
		switch g.r.Intn(3) {
		case 0:
			g.emit(depth, "for %s in range(%s):", v, bound)
		case 1:
			g.emit(depth, "for %s in range(%s, %s + 7, %d):", v, g.iexpr(0), g.iexpr(0), g.r.Intn(3)+1)
		default:
			g.emit(depth, "for %s in range(%s, -1, -%d):", v, bound, g.r.Intn(2)+1)
		}
		g.ivars = append(g.ivars, v)
	}
	g.stmts(depth+1, inner, true)
	g.ivars = g.ivars[:len(g.ivars)-1]
}

// program writes one module defining f(n, seed).
func (g *nestGen) program(depth int, clause string) string {
	g.lines = nil
	g.emit(0, "from omp4py import *")
	g.emit(0, "import math")
	g.emit(0, "def first(u, v):")
	g.emit(1, "return u")
	g.emit(0, "@omp")
	g.emit(0, "def f(n: int, seed: int):")
	for _, l := range []string{
		"a = [0.0] * n", "b = [0.0] * n", "c = [0] * n", "d = [0] * n",
		"for q in range(n):",
		"    a[q] = ((q * 7 + seed) % 13) * 0.25 - 1.0",
		"    b[q] = ((q * 5 + seed) % 11) * 0.375 + 0.5",
		"    c[q] = (q * 3 + seed) % 17 - 4",
		"w: float = 1.0 / n", "cnt: int = 0",
	} {
		g.emit(1, "%s", l)
	}
	if g.misann {
		for _, l := range []string{"xi: int = 3", "def spoil():", "    nonlocal xi", "    xi = 0.5 * seed", "spoil()"} {
			g.emit(1, "%s", l)
		}
	}
	g.sharing, g.last = g.sharing && !g.serial, g.last && g.sharing && !g.serial
	if g.sharing {
		for _, l := range []string{"pt: float = 0.0", "fp: float = 0.375 * (seed % 5)", "fk: int = seed % 9 + 1", "hi: int = 0", "lp: int = 0"} {
			g.emit(1, "%s", l)
		}
		clause += " private(pt) firstprivate(fp, fk) reduction(max:hi)"
		if g.last {
			clause += " lastprivate(lp)"
		}
	}
	body := 1
	if !g.serial {
		g.emit(1, "with omp(\"parallel for reduction(+:cnt) %s\"):", clause)
		body = 2
	}
	g.emit(body, "for i in range(n):")
	g.ivars = []string{"i"}
	for _, l := range []string{"m: int = n", "sd: int = seed", "wl: float = w",
		"x0: float = 0.5", "x1: float = w * i", "k0: int = i % 5", "k1: int = seed % 7"} {
		g.emit(body+1, "%s", l)
	}
	if g.sharing {
		g.emit(body+1, "pt = x1 + fp")
		g.emit(body+1, "hi = max(hi, (i * fk) %% 1000)")
	}
	if g.last {
		g.emit(body+1, "lp = (i * fk) %% 1000")
	}
	if g.misann {
		g.emit(body+1, "z: float = 0.25")
		g.emit(body+1, "kz: int = 2")
		g.misannotate(body + 1)
	}
	g.stmts(body+1, depth-1, g.serial)
	if g.sharing {
		g.emit(1, "return [a, d, cnt, hi, lp]")
	} else {
		g.emit(1, "return [a, d, cnt]")
	}
	return strings.Join(g.lines, "\n") + "\n"
}

// TestIRDifferentialLoopNests is the seeded differential of the typed
// loop IR: generated nests of depth 1-3 with mixed int/float slots,
// indexed loads and stores, reductions, if/break/continue/return and
// nested range and while loops run as IR, with kernels off and
// interpreted, serially and as worksharing loops under static block and
// chunked schedules on 1, 2 and 4 threads. All three must return
// Float64bits-identical results.
func TestIRDifferentialLoopNests(t *testing.T) {
	clauses := []string{"", "schedule(static)", "schedule(static, 1)", "schedule(static, 5)"}
	ran := int64(0)
	seeds := 90
	if testing.Short() {
		seeds = 24
	}
	for seed := 0; seed < seeds; seed++ {
		g := &nestGen{r: rand.New(rand.NewSource(int64(seed))), serial: seed%3 == 0, whiles: seed%2 == 0, misann: seed%5 == 4,
			sharing: seed%5 < 3 && seed%7 < 4, last: seed%7 < 2}
		clause := ""
		if !g.serial {
			clause = fmt.Sprintf("%s num_threads(%d)", clauses[seed%len(clauses)], []int{1, 2, 4}[(seed/3)%3])
		}
		src := g.program(1+seed%3, clause)
		o := agree(t, src, int64(23+seed%9), int64(seed*31+7))
		if o.errType != "" {
			t.Fatalf("seed %d: generated program raised %v\n%s", seed, o, src)
		}
		ran += o.irLoops
		if seed%4 != 1 {
			continue
		}
		// A float argument to the int parameter seed, which the loop of a
		// worksharing program captures: both compiled forms refuse it at
		// the def (the interpreter knows no annotations).
		ir, off := runForm(t, src, formIR, nil, int64(23), 2.5), runForm(t, src, formOff, nil, int64(23), 2.5)
		if !ir.same(off) || ir.errType != "TypeError" || ir.errMsg != "f() argument 'seed': expected int, got float" || ir.errLine != 6 {
			t.Fatalf("seed %d, f(23, 2.5):\n  ir:          %v\n  kernels-off: %v\n%s", seed, ir, off, src)
		}
	}
	// The generator exists to exercise the IR: nearly every program's
	// main nest (and always its initialisation loop) must lower.
	t.Logf("%d loops of %d programs ran as IR", ran, seeds)
	if ran < int64(3*seeds) {
		t.Fatalf("only %d loops of %d programs ran as IR", ran, seeds)
	}
}

// TestIRIntModInFloatContext: in the inner loop of the sched-dyn
// workload's tri.py, s += ((i*31 + j*17 + seed) % 97) * 0.5, the int
// expression is computed on the int path and converted once — its %
// is ModI, not ModF (math.Mod) on converted operands. Both loops of the
// nest lower.
func TestIRIntModInFloatContext(t *testing.T) {
	src, err := os.ReadFile("../../benchmark/programs/tri.py")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := minipy.Parse(string(src), "tri.py")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := transform.Module(mod); err != nil {
		t.Fatal(err)
	}
	in := interp.New(interp.Options{Layer: rt.LayerAtomic, Getenv: func(string) string { return "" }})
	defer in.Runtime().Shutdown()
	if err := Install(in, mod, Options{Typed: true, Kernels: KernelsOn}); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	progs := map[*irProg]bool{}
	irEntered = func(p *irProg) {
		mu.Lock()
		progs[p] = true
		mu.Unlock()
	}
	defer func() { irEntered = nil }()
	if err := in.RunModule(mod); err != nil {
		t.Fatal(err)
	}
	// 0.5 * the sum over i < 40, j <= i of (31i + 17j + 5) % 97.
	if v, err := in.CallFunction("bench_main", int64(2), int64(40), int64(5)); err != nil || v != 19745.5 {
		t.Fatalf("bench_main(2, 40, 5) = %v, %v", v, err)
	}
	modI, modF := int32(binIndex(binI, "%")), int32(binIndex(binF, "%"))
	loops, intMods := 0, 0
	for p := range progs {
		loops += p.loops
		for _, ins := range p.code {
			switch {
			case ins.op == opBinI && ins.d == modI:
				intMods++
			case ins.op == opBinF && ins.d == modF:
				t.Errorf("a float %% is left in the lowered nest")
			}
		}
	}
	if len(progs) != 1 || loops != 2 || intMods != 1 {
		t.Errorf("%d programs, %d loops, %d int %%s; want 1, 2 and 1", len(progs), loops, intMods)
	}
}

// TestIRFaultsMatch: the fault paths of the IR (the frame fault slot
// plus the pc->position table) must raise what the closure chain and
// the interpreter raise: same type, message and source line.
func TestIRFaultsMatch(t *testing.T) {
	prog := func(setup, body string) string {
		return "import math\ndef f(n: int):\n    a = [0.5] * n\n    c = [3] * n\n" + setup +
			"    s: float = 0.0\n    k: int = 1\n    for i in range(n):\n" + body + "    return [s, k, a, c]\n"
	}
	for _, tc := range []struct {
		name, src        string
		errType, errMsg  string
		line             int
		compiledLineOnly bool // the interpreter raises this one without a position
		deopt            bool // the entry guard must send the loop to closures
	}{
		{name: "float division by zero", src: prog("", "        s += 1.0 / (i - 4)\n"),
			errType: "ZeroDivisionError", errMsg: "float division by zero", line: 8},
		{name: "augmented float division", src: prog("", "        s += 2.0\n        s /= (4 - i)\n"),
			errType: "ZeroDivisionError", errMsg: "float division by zero", line: 9},
		{name: "int floor division by zero", src: prog("", "        k = 7 // (i - 4)\n"),
			errType: "ZeroDivisionError", errMsg: "integer division or modulo by zero", line: 8},
		{name: "int modulo by zero", src: prog("", "        k = k + 7 % (4 - i)\n"),
			errType: "ZeroDivisionError", errMsg: "integer division or modulo by zero", line: 8},
		{name: "load out of range", src: prog("", "        s += a[i + 1]\n"),
			errType: "IndexError", errMsg: "list index out of range", line: 8},
		{name: "store out of range", src: prog("", "        k: int = c[i]\n        a[i + 1] = s\n"),
			errType: "IndexError", errMsg: "list assignment index out of range", line: 9},
		{name: "negative index wraps", src: prog("", "        s += a[i - n] * 2.0\n        a[-1 - i] = s\n        k: int = k + c[-1]\n")},
		{name: "negative index out of range", src: prog("", "        s += a[-n - i]\n"),
			errType: "IndexError", errMsg: "list index out of range", line: 8},
		{name: "int storage in float context", src: prog("", "        s += c[i] * 0.5\n"), deopt: true},
		{name: "float store promotes int storage", src: prog("", "        c[i] = s + 0.5\n"), deopt: true},
		{name: "generic storage deopts at entry", src: prog("    a = [0.5, 1, 2.5, 3, 4.5, 5, 6.5, 7]\n", "        s += a[i] * 2.0\n"), deopt: true},
		{name: "non-numeric invariant deopts at entry", src: prog("    w = None\n", "        if i > 99:\n            s += w\n        s += 1.0\n"), deopt: true},
		{name: "rebound builtin deopts at entry", src: "def abs(v):\n    return v * 3\n" + prog("", "        k += abs(i - 4)\n"), deopt: true},
		{name: "math domain error", src: prog("", "        s += math.sqrt(3.5 - i)\n"),
			errType: "ValueError", errMsg: "math domain error", line: 8, compiledLineOnly: true},
		{name: "negative shift count", src: prog("", "        k += 1 << (4 - i)\n"),
			errType: "ValueError", errMsg: "negative shift count", line: 8},
		{name: "nested range step zero", src: prog("", "        for j in range(0, 3, 4 - i):\n            k += j\n"),
			errType: "ValueError", errMsg: "range() arg 3 must not be zero", line: 8, compiledLineOnly: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got [3]outcome
			for k, form := range irForms {
				got[k] = runForm(t, tc.src, form, nil, int64(8))
				if got[k].errType != tc.errType || got[k].errMsg != tc.errMsg {
					t.Fatalf("%s: got %v, want %s: %s\n%s", form, got[k], tc.errType, tc.errMsg, tc.src)
				}
				if tc.errType != "" && got[k].errLine != tc.line && !(tc.compiledLineOnly && form == formInterp) {
					t.Fatalf("%s: raised at line %d, want %d\n%s", form, got[k].errLine, tc.line, tc.src)
				}
			}
			if tc.compiledLineOnly {
				got[2].errLine = got[0].errLine
			}
			if !got[0].same(got[1]) || !got[0].same(got[2]) {
				t.Fatalf("forms disagree:\n  ir:          %v\n  kernels-off: %v\n  interp:      %v", got[0], got[1], got[2])
			}
			if tc.deopt != (got[0].irLoops == 0) {
				t.Fatalf("IR executed %d loops, deopt expected: %v", got[0].irLoops, tc.deopt)
			}
		})
	}
}

// TestIRFaultLeavesStateLikeClosures: a fault caught by the program
// must leave the loop's variables exactly where the closure chain
// leaves them, so execution can continue identically.
func TestIRFaultLeavesStateLikeClosures(t *testing.T) {
	o := agree(t, `
def f(n: int):
    a = [1.0] * n
    k: int = 0
    s: float = 0.0
    try:
        for i in range(n):
            k = i
            s += a[i] / (3 - i)
            a[i] = s
    except ZeroDivisionError:
        k = k + 100
    return [k, s, a]
`, int64(6))
	if o.irLoops == 0 || o.vals[0] != int64(103) {
		t.Fatalf("got %v after %d IR loops, want k=103 via IR", o, o.irLoops)
	}
}

// TestKernelHoistCalleeAppend is the stale-view regression: a callee
// that reallocates a list the loop body also subscripts. A hoisted
// view would keep writing the old backing array, so a body that calls
// anything but the pure intrinsics must not hoist (nor lower) at all.
func TestKernelHoistCalleeAppend(t *testing.T) {
	src := `
from omp4py import *

a = [0.0] * 4

def grow():
    a.append(0.0)

@omp
def f():
    with omp("parallel for schedule(static) num_threads(1)"):
        for i in range(4):
            grow()
            a[i] = 1.0
    return [a[0] + a[1] + a[2] + a[3], len(a)]
`
	o := agree(t, src)
	if o.vals[0] != 4.0 || o.vals[1] != int64(8) {
		t.Fatalf("got %v, want [4.0 8]", o)
	}
	// Same hazard in a serial loop whose range argument makes the call.
	o = agree(t, `
a = [0.0] * 4

def grow():
    a.append(0.0)
    return 4

def f():
    for i in range(grow()):
        a[i] = 1.0
    return [a[0] + a[1] + a[2] + a[3], len(a)]
`)
	if o.vals[0] != 4.0 || o.vals[1] != int64(5) {
		t.Fatalf("got %v, want [4.0 5]", o)
	}
}

// TestKernelBudgetPolled: compiled loops charge the execution budget,
// as IR and as closures, in serial and worksharing loops, so a step
// quota or a deadline stops a compiled "while True".
func TestKernelBudgetPolled(t *testing.T) {
	spin := `
from omp4py import *

@omp
def f(n: int):
    k: int = 0
    while True:
        k = (k + 1) % 1000
    return k
`
	nest := `
from omp4py import *

@omp
def f(n: int):
    total: int = 0
    with omp("parallel for reduction(+:total) num_threads(2)"):
        for i in range(n):
            for j in range(n):
                total += (i ^ j) & 1
    return total
`
	called := `
from omp4py import *

def one():
    return 1

@omp
def f(n: int):
    k: int = 0
    while True:
        k = (k + one()) % 1000
    return k
`
	for _, tc := range []struct {
		name, src, form string
		budget          interp.Budget
		kind            string
		viaIR           bool
	}{
		{"ir while steps", spin, formIR, interp.Budget{MaxSteps: 50_000}, "steps", true},
		{"ir while deadline", spin, formIR, interp.Budget{Deadline: time.Now().Add(50 * time.Millisecond)}, "deadline", true},
		{"closure while steps", spin, formOff, interp.Budget{MaxSteps: 50_000}, "steps", false},
		{"closure while with call", called, formIR, interp.Budget{MaxSteps: 50_000}, "steps", false},
		{"ir kernel nest steps", nest, formIR, interp.Budget{MaxSteps: 50_000}, "steps", true},
		{"bridge nest steps", nest, formOff, interp.Budget{MaxSteps: 50_000}, "steps", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.budget
			if !b.Deadline.IsZero() {
				b.Deadline = time.Now().Add(50 * time.Millisecond)
			}
			start := time.Now()
			o := runForm(t, tc.src, tc.form, &b, int64(1<<20))
			if o.errType != "budget" || o.errMsg != tc.kind || o.errLine == 0 {
				t.Fatalf("got %v, want a positioned %s budget kill", o, tc.kind)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Fatalf("kill took %v", d)
			}
			if tc.viaIR != (o.irLoops > 0) {
				t.Fatalf("IR loops executed = %d, want via IR: %v", o.irLoops, tc.viaIR)
			}
		})
	}
	// An unarmed budget costs nothing observable: the loop completes.
	if o := runForm(t, nest, formIR, nil, int64(300)); o.errType != "" || o.vals[0] != int64(45000) {
		t.Fatalf("unbudgeted nest = %v, want 45000", o)
	}
}

// TestDeclarationTrust pins what an int/float declaration means when
// its value has no static type. Only the declaration statement itself,
// with a call-free initializer over list elements, names of enclosing
// scopes, typed locals and literals, is trusted: the slot stays unboxed
// and the store coerces or raises, in the IR and the closure chain
// alike (the interpreter ignores annotations, so there it differs by
// design). Every other untyped value — a call result, None, a generic
// for target, a plain assignment — boxes the variable as it always
// did, and all three forms agree.
func TestDeclarationTrust(t *testing.T) {
	boxed := []struct{ name, src string }{
		{"call result", "def g():\n    return 2.5\ndef f():\n    x: int = 0\n    x = g()\n    return x\n"},
		{"call result in the declaration", "def g():\n    return 2.5\ndef f():\n    x: int = g()\n    return x\n"},
		{"generic for target", "def f():\n    a = [0.5, 1.5]\n    n: int = 0\n    for v in a:\n        n = v\n    return n\n"},
		{"None", "def f():\n    x: float = 0.0\n    for i in range(3):\n        x = None\n    return x\n"},
		{"plain assignment of an element", "def f():\n    a = [0.5, 1.5]\n    n: int = 0\n    for i in range(2):\n        n = a[i]\n    return n\n"},
		{"augmented assignment of an element", "def f():\n    a = [0.5, 1.5]\n    n: int = 0\n    for i in range(2):\n        n += a[i]\n    return n\n"},
		{"intrinsic call over elements", "def f():\n    a = [1, 2]\n    m: float = 0.0\n    for i in range(2):\n        m: float = max(a[i], a[0])\n    return m\n"},
		{"boxed local", "def f():\n    u = \"s\"\n    x: float = u\n    return x\n"},
		{"unannotated parameter", "def h(n):\n    k: int = n\n    return k\ndef f():\n    return h(2.5)\n"},
	}
	for _, tc := range boxed {
		t.Run("boxed/"+tc.name, func(t *testing.T) { agree(t, tc.src) })
	}

	trusted := []struct {
		name, src        string
		compiled, interp interp.Value // results; compiled nil means it raises
		errMsg           string
		errLine          int
	}{
		{name: "int element coerces into a float slot",
			src:      "def f():\n    c = [3, 4]\n    s: float = 0.0\n    for i in range(2):\n        x: float = c[i]\n        s = x\n    return s\n",
			compiled: 4.0, interp: int64(4)},
		{name: "float element raises into an int slot",
			src:    "def f():\n    a = [0.5, 1.5]\n    k: int = 0\n    for i in range(2):\n        k: int = a[i]\n    return k\n",
			interp: 1.5, errMsg: "expected an int, got float", errLine: 5},
		{name: "string element raises into a float slot",
			src:    "def f():\n    a = [\"p\", \"q\"]\n    for i in range(2):\n        x: float = a[i]\n    return x\n",
			interp: "q", errMsg: "expected a number, got str", errLine: 4},
		{name: "untyped enclosing-scope name in arithmetic",
			src:    "def f():\n    n = [2.5][0]\n    def h():\n        r: int = 0\n        for i in range(3):\n            k: int = i * n\n            r = k\n        return r\n    return h()\n",
			interp: 5.0, errMsg: "expected an int, got float", errLine: 6},
		{name: "typed enclosing-scope name is no matter of trust",
			src:      "def f():\n    n = 2.5\n    def h():\n        r: int = 0\n        for i in range(3):\n            k: int = i * n\n            r = k\n        return r\n    return h()\n",
			compiled: 5.0, interp: 5.0},
	}
	for _, tc := range trusted {
		t.Run("trusted/"+tc.name, func(t *testing.T) {
			ir, off, in := runForm(t, tc.src, formIR, nil), runForm(t, tc.src, formOff, nil), runForm(t, tc.src, formInterp, nil)
			if !ir.same(off) {
				t.Fatalf("compiled forms disagree:\n  ir:          %v\n  kernels-off: %v", ir, off)
			}
			if in.errType != "" || in.vals[0] != tc.interp {
				t.Fatalf("interp: got %v, want %v", in, tc.interp)
			}
			if tc.compiled != nil {
				if ir.errType != "" || ir.vals[0] != tc.compiled {
					t.Fatalf("compiled: got %v, want %v", ir, tc.compiled)
				}
			} else if ir.errType != "TypeError" || ir.errMsg != tc.errMsg || ir.errLine != tc.errLine {
				t.Fatalf("compiled: got %v, want TypeError: %s (line %d)", ir, tc.errMsg, tc.errLine)
			}
		})
	}
}

// TestIRWhileRereadsSharedNames: a while loop may be waiting for
// another thread to rebind a shared name, which the closure chain and
// the interpreter re-read on every iteration. Hoisting the name into a
// register at loop entry would spin forever, so such a nest must not
// lower; a for nest, which is bounded, may keep the value it entered
// with.
func TestIRWhileRereadsSharedNames(t *testing.T) {
	if raceDetector {
		t.Skip("a spin-wait on a plain shared name is a data race by construction")
	}
	src := `
from omp4py import *

started = 0
done = 0

def arrive():
    global started
    started = 1

def release():
    global done
    done = 1

@omp
def f():
    out = [0, 0]
    with omp("parallel num_threads(2)"):
        c: int = 0
        if omp_get_thread_num() == 1:
            arrive()
            while done == 0:
                c = (c + 1) % 1000
            out[1] = 1
        else:
            while started == 0:
                c = (c + 1) % 1000
            release()
            out[0] = 1
    return out
`
	var got [3]outcome
	for k, form := range irForms {
		b := interp.Budget{Deadline: time.Now().Add(20 * time.Second)}
		got[k] = runForm(t, src, form, &b)
		if got[k].errType != "" || got[k].vals[0] != int64(1) || got[k].vals[1] != int64(1) {
			t.Fatalf("%s: got %v, want [1 1]", form, got[k])
		}
	}
	if got[0].irLoops != 0 {
		t.Fatalf("%d while loops on a shared name ran as IR", got[0].irLoops)
	}

	// The same read in a bounded loop, and a while loop over a typed
	// copy of the name, both lower.
	o := agree(t, `
limit = 7

def f():
    s: int = 0
    for i in range(10):
        if i < limit:
            s += i
    m: int = limit
    k: int = 0
    while k < m:
        k += 2
    return [s, k]
`)
	if o.irLoops != 2 || o.vals[0] != int64(21) || o.vals[1] != int64(8) {
		t.Fatalf("got %v with %d IR loops, want [21 8] with 2", o, o.irLoops)
	}
}

// TestTypedParamChecked: an int or float parameter is a typed binding
// whether or not a nested function captures it — an uncaptured one
// lives in an unboxed slot, a captured one in a cell, and binding an
// argument coerces it or raises the same positioned TypeError either
// way, in the IR form and on the closure chain alike. (The parent
// commit stored a captured parameter unchecked: f(2.5) returned 5.0.)
func TestTypedParamChecked(t *testing.T) {
	for _, typ := range []string{"int", "float"} {
		for _, captured := range []bool{false, true} {
			src := "def f(k: " + typ + "):\n    return k * 2\n"
			if captured {
				src = "def f(k: " + typ + "):\n    def g():\n        return k * 2\n    return g()\n"
			}
			for _, tc := range []struct {
				arg, want interp.Value
				got       string // the argument's type in the error, when it raises
			}{
				{arg: int64(3), want: map[string]interp.Value{"int": int64(6), "float": 6.0}[typ]},
				{arg: 2.5, want: map[string]interp.Value{"float": 5.0}[typ], got: "float"},
				{arg: nil, got: "NoneType"},
			} {
				ir, off := runForm(t, src, formIR, nil, tc.arg), runForm(t, src, formOff, nil, tc.arg)
				if !ir.same(off) {
					t.Fatalf("%s captured=%v f(%v): compiled forms disagree:\n  ir:          %v\n  kernels-off: %v", typ, captured, tc.arg, ir, off)
				}
				if tc.want != nil {
					if ir.errType != "" || ir.vals[0] != tc.want {
						t.Errorf("%s captured=%v f(%v) = %v, want %v", typ, captured, tc.arg, ir, tc.want)
					}
					continue
				}
				msg := "f() argument 'k': expected " + typ + ", got " + tc.got
				if ir.errType != "TypeError" || ir.errMsg != msg || ir.errLine != 1 {
					t.Errorf("%s captured=%v f(%v): got %v, want TypeError: %s (line 1)", typ, captured, tc.arg, ir, msg)
				}
			}
		}
	}
}
