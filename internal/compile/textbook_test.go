package compile_test

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/omp4go/omp4go/internal/compile"
	"github.com/omp4go/omp4go/internal/interp"
	"github.com/omp4go/omp4go/internal/minipy"
	"github.com/omp4go/omp4go/internal/rt"
	"github.com/omp4go/omp4go/internal/transform"
)

// textbookShape is a first program a user writes: one worksharing loop
// over a function's annotated parameters, locals and lists. setup and
// body are indented source of f(n: int, k: int, a, b, out) — a, b and
// out lists of n floats — the loop under
// `with omp("parallel for <clause>")` unless region gives the whole
// construct; ret is what f returns.
type textbookShape struct {
	name, setup, clause, body, ret string
	region                         string
}

// textbookArgs builds f's arguments. Float sums over a and b are exact
// (multiples of 1/8, far below 2**53), so the order in which threads
// merge does not show in the bits.
func textbookArgs(n int) []interp.Value {
	a, b := interp.NewFloatList(n, 0), interp.NewFloatList(n, 0)
	for q := 0; q < n; q++ {
		a.SetFloatAt(q, float64(q*7%13)*0.25)
		b.SetFloatAt(q, float64(q*5%7)*0.5)
	}
	return []interp.Value{int64(n), int64(3), a, b, interp.NewFloatList(n, 0)}
}

var textbookShapes = []textbookShape{
	{name: "int-reduce-captured", setup: "    total: int = 0\n", clause: "reduction(+:total)",
		body: "total += (i * k) % 7\n", ret: "total"},
	{name: "dot", setup: "    total: float = 0.0\n", clause: "reduction(+:total)",
		body: "total += a[i] * b[i]\n", ret: "total"},
	{name: "sum", setup: "    total: float = 0.0\n", clause: "reduction(+:total)",
		body: "total += a[i]\n", ret: "total"},
	{name: "saxpy", setup: "    alpha: float = 0.5 * k\n",
		body: "out[i] = alpha * a[i] + out[i]\n", ret: "out"},
	{name: "count-if", setup: "    cnt: int = 0\n", clause: "reduction(+:cnt)",
		body: "if i % k == 0:\n    cnt += 1\n", ret: "cnt"},
	{name: "firstprivate", setup: "    scale: float = 0.25 * k\n", clause: "firstprivate(scale)",
		body: "out[i] = scale * a[i]\n", ret: "out"},
	{name: "reduction-max", setup: "    best: float = -1.0\n", clause: "reduction(max:best)",
		body: "v: float = a[i]\nif v > best:\n    best = v\n", ret: "best"},
	{name: "private", setup: "    t: float = 0.0\n", clause: "private(t)",
		body: "t = a[i] * 0.5\nout[i] = t + 1.0\n", ret: "out"},
	{name: "parallel-then-for", setup: "    total: float = 0.0\n",
		region: "    with omp(\"parallel num_threads(%d)\"):\n        with omp(\"for reduction(+:total)\"):\n            for i in range(n):\n                total += a[i] * b[i]\n",
		ret:    "total"},
	// Beyond the table: the remaining clauses, a chunked schedule, and a
	// typed binding a nested plain function stores to.
	{name: "lastprivate", setup: "    last: int = -1\n", clause: "lastprivate(last)",
		body: "last = (i * k) % 11\nout[i] = 0.5 * last\n", ret: "[last, out]"},
	{name: "reduction-mul-int", setup: "    p: int = 1\n", clause: "reduction(*:p)",
		body: "p *= 2 if i % 64 == 0 else 1\n", ret: "p"},
	{name: "default-firstprivate", setup: "    scale: float = 0.25 * k\n", clause: "default(firstprivate)",
		body: "out[i] = scale * i\n", ret: "out"},
	{name: "static-chunked", setup: "    total: int = 0\n", clause: "reduction(+:total) schedule(static, 4)",
		body: "total += (i * k) % 7\n", ret: "total"},
	{name: "nonlocal-store", setup: "    m: int = 1\n    def bump():\n        nonlocal m\n        m = m + k\n    bump()\n    total: int = 0\n",
		clause: "reduction(+:total)", body: "total += (i * m) % 7\n", ret: "total"},
}

func (s textbookShape) source(threads int) string {
	region := fmt.Sprintf(s.region, threads)
	if s.region == "" {
		region = fmt.Sprintf("    with omp(\"parallel for %s num_threads(%d)\"):\n        for i in range(n):\n", s.clause, threads)
		for _, l := range strings.Split(strings.TrimSuffix(s.body, "\n"), "\n") {
			region += "            " + l + "\n"
		}
	}
	return "from omp4py import *\n\n@omp\ndef f(n: int, k: int, a, b, out):\n" + s.setup + region + "    return " + s.ret + "\n"
}

// Forms a program is loaded in.
const (
	formIR       = "ir"
	formClosures = "closures" // typed, kernels off: the differential baseline
	formBoxed    = "boxed"    // compiled without types (the Compiled mode)
	formInterp   = "interp"
)

// loadForm parses, transforms and installs src and runs its module
// body; call invokes its f.
func loadForm(tb testing.TB, src, form string) (call func(args ...interp.Value) (interp.Value, error)) {
	tb.Helper()
	mod, err := minipy.Parse(src, "textbook.py")
	if err == nil {
		_, err = transform.Module(mod)
	}
	if err != nil {
		tb.Fatalf("%v\n%s", err, src)
	}
	in := interp.New(interp.Options{Stdout: &bytes.Buffer{}, Layer: rt.LayerAtomic, Getenv: func(string) string { return "" }})
	tb.Cleanup(in.Runtime().Shutdown)
	switch form {
	case formIR:
		err = compile.Install(in, mod, compile.Options{Typed: true, Kernels: compile.KernelsOn})
	case formClosures:
		err = compile.Install(in, mod, compile.Options{Typed: true, Kernels: compile.KernelsOff})
	case formBoxed:
		err = compile.Install(in, mod, compile.Options{})
	}
	if err == nil {
		err = in.RunModule(mod)
	}
	if err != nil {
		tb.Fatalf("%s: %v\n%s", form, err, src)
	}
	return func(args ...interp.Value) (interp.Value, error) { return in.CallFunction("f", args...) }
}

// bits renders a result with floats as their bit patterns.
func bits(v interp.Value) string {
	switch t := v.(type) {
	case float64:
		return fmt.Sprintf("f%016x", math.Float64bits(t))
	case *interp.List:
		parts := make([]string, t.Len())
		for i := range parts {
			parts[i] = bits(t.Get(i))
		}
		return "[" + strings.Join(parts, " ") + "]"
	}
	return fmt.Sprint(v)
}

// TestTextbookLoopsRunAsIR: annotations survive outlining. Each shape's
// worksharing loop must enter as typed loop IR — its captured
// parameters and locals typed by their owner's declarations, its
// data-sharing copies by their originals' — and return what the closure
// chain and the interpreter return, bit for bit, on 1, 2 and 4 threads.
func TestTextbookLoopsRunAsIR(t *testing.T) {
	for _, s := range textbookShapes {
		t.Run(s.name, func(t *testing.T) {
			for _, threads := range []int{1, 2, 4} {
				src := s.source(threads)
				var got [3]string
				for k, form := range []string{formIR, formClosures, formInterp} {
					call := loadForm(t, src, form)
					var v interp.Value
					var err error
					loops := compile.CountIRLoops(func() { v, err = call(textbookArgs(1000)...) })
					if err != nil {
						t.Fatalf("%s, %d threads: %v\n%s", form, threads, err, src)
					}
					if (form == formIR) != (loops > 0) {
						t.Fatalf("%s, %d threads: %d loops ran as IR\n%s", form, threads, loops, src)
					}
					got[k] = bits(v)
				}
				if got[0] != got[1] || got[0] != got[2] {
					t.Fatalf("%d threads: forms disagree\n  ir:       %.200s\n  closures: %.200s\n  interp:   %.200s\n%s",
						threads, got[0], got[1], got[2], src)
				}
			}
		})
	}
	if testing.Short() {
		return
	}
	// The timing log of the Motivation table (ISSUE 13): ns per iteration
	// at one thread, as IR and on the closure chain.
	const n = 400_000
	for _, s := range textbookShapes[:9] {
		var ns [2]float64
		for k, form := range []string{formIR, formClosures} {
			call, args := loadForm(t, s.source(1), form), textbookArgs(n)
			best := time.Duration(math.MaxInt64)
			for rep := 0; rep < 3; rep++ {
				start := time.Now()
				if _, err := call(args...); err != nil {
					t.Fatal(err)
				}
				best = min(best, time.Since(start))
			}
			ns[k] = float64(best.Nanoseconds()) / n
		}
		t.Logf("%-20s %6.1f ns/iter as IR, %6.1f on closures", s.name, ns[0], ns[1])
	}
}

// TestUninitializedPrivateCopy: a private or lastprivate copy starts
// with no value, and reading it before a store is undefined in OpenMP.
// Here it reads as None wherever types mean nothing — the interpreter,
// and a copy of an undeclared original in every form — and as the zero
// of its original's declared type in the typed forms, which is what the
// bare declaration "x: T" gives any unbound local. A bound one it
// leaves alone.
func TestUninitializedPrivateCopy(t *testing.T) {
	src := `from omp4py import *

@omp
def f():
    t: float = 1.5
    last: int = 7
    u = 2
    seen = [0, 0, 0, 0]
    with omp("parallel for private(t, u) lastprivate(last) num_threads(1)"):
        for i in range(1):
            seen[0] = t
            seen[1] = u
            if i < 0:
                last = i
    seen[2] = last
    t: float
    seen[3] = t
    return seen
`
	typed, untyped := []interp.Value{0.0, nil, int64(0), 1.5}, []interp.Value{nil, nil, nil, 1.5}
	for form, want := range map[string][]interp.Value{
		formIR: typed, formClosures: typed, formBoxed: untyped, formInterp: untyped,
	} {
		v, err := loadForm(t, src, form)()
		if err != nil {
			t.Fatalf("%s: %v", form, err)
		}
		l := v.(*interp.List)
		got := make([]interp.Value, l.Len())
		for i := range got {
			got[i] = l.Get(i)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: f() = %#v, want %#v", form, got, want)
		}
	}
}
