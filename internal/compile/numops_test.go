package compile

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/omp4go/omp4go/internal/interp"
	"github.com/omp4go/omp4go/internal/minipy"
	"github.com/omp4go/omp4go/internal/rt"
)

// numExecutors are the four ways one typed expression gets evaluated:
// the tree-walker, the boxed closures of Compiled, the typed closures
// of CompiledDT and the typed loop IR. opts == nil installs nothing.
var numExecutors = []struct {
	name string
	opts *Options
}{
	{"interp", nil},
	{"compiled", &Options{}},
	{"closures", &Options{Typed: true, Kernels: KernelsOff}},
	{"ir", &Options{Typed: true, Kernels: KernelsOn}},
}

// loadNum loads src for one executor and returns f as a function from
// operands to outcome.
func loadNum(t *testing.T, src string, opts *Options) func(x, y interp.Value) outcome {
	t.Helper()
	mod, err := minipy.Parse(src, "numops.py")
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	in := interp.New(interp.Options{Layer: rt.LayerAtomic, Getenv: func(string) string { return "" }})
	t.Cleanup(in.Runtime().Shutdown)
	if opts != nil {
		if err := Install(in, mod, *opts); err != nil {
			t.Fatalf("compile: %v\n%s", err, src)
		}
	}
	if err := in.RunModule(mod); err != nil {
		t.Fatalf("run module: %v\n%s", err, src)
	}
	return func(x, y interp.Value) outcome {
		v, err := in.CallFunction(irTestEntry, x, y)
		var pe *interp.PyError
		switch {
		case errors.As(err, &pe):
			return outcome{errType: pe.Type, errMsg: pe.Msg, errLine: pe.Pos.Line}
		case err != nil:
			return outcome{errType: "error", errMsg: err.Error()}
		}
		return outcome{vals: []interp.Value{v}}
	}
}

// TestNumericOperatorTable: one table of operators and edge operands,
// four executors. Every numeric operator is evaluated over a grid that
// holds the cases its definition branches on — zero divisors, mixed
// signs (-7 // 2, -7 % 2, 7.5 % -2), negative and >= 64 shift counts,
// min/max of equal and of +0.0/-0.0 values, NaN and infinities — by the
// interpreter, Compiled, the CompiledDT closures and the IR, and the
// results must be identical: floats by Float64bits, exceptions by type,
// message and line.
func TestNumericOperatorTable(t *testing.T) {
	ints := []interp.Value{}
	for _, n := range []int64{0, 1, -1, 2, -2, 7, -7, 63, 64, 65, -64, 1 << 62, math.MinInt64} {
		ints = append(ints, n)
	}
	floats := []interp.Value{}
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1, 2, -2, 7.5, -7.5, 0.5, 1e308,
		math.Inf(1), math.Inf(-1), math.NaN()} {
		floats = append(floats, f)
	}
	binary := func(op string) string { return "x " + op + " y" }
	call := func(fn string) string { return fn + "(x, y)" }

	type row struct {
		expr   string // over x and y
		result string // annotation of the result; "" leaves it boxed
		lowers bool   // the loop holding it must run as IR
	}
	var intRows, floatRows []row
	for _, op := range []string{"+", "-", "*", "//", "%", "&", "|", "^", "<<", ">>"} {
		intRows = append(intRows, row{binary(op), "int", true})
	}
	intRows = append(intRows,
		row{binary("/"), "float", true},
		row{binary("**"), "", false}, // int ** int may be a float: boxed everywhere
		row{call("min"), "int", true}, row{call("max"), "int", true})
	for _, op := range []string{"+", "-", "*", "/", "//", "%", "**"} {
		floatRows = append(floatRows, row{binary(op), "float", true})
	}
	// min/max of an int and a float is whichever wins, undeclared; the
	// mixed kind has the operators only.
	mixedRows := floatRows
	floatRows = append(floatRows[:len(floatRows):len(floatRows)],
		row{call("min"), "float", true}, row{call("max"), "float", true})

	for _, kind := range []struct {
		name, xType, yType string
		xs, ys             []interp.Value
		rows               []row
	}{
		{"int", "int", "int", ints, ints, intRows},
		{"float", "float", "float", floats, floats, floatRows},
		// A float context computes an int operand as a float.
		{"mixed", "int", "float", ints, floats, mixedRows},
	} {
		for _, r := range kind.rows {
			t.Run(kind.name+" "+r.expr, func(t *testing.T) {
				decl := "    r = 0\n"
				if r.result != "" {
					decl = "    r: " + r.result + " = 0\n"
				}
				src := fmt.Sprintf("def f(x: %s, y: %s):\n%s    for i in range(1):\n        r = %s\n    return r\n",
					kind.xType, kind.yType, decl, r.expr)
				var fns [4]func(x, y interp.Value) outcome
				for k, ex := range numExecutors {
					fns[k] = loadNum(t, src, ex.opts)
				}
				var irLoops int64
				for _, x := range kind.xs {
					for _, y := range kind.ys {
						want := fns[0](x, y)
						for k := 1; k < len(fns); k++ {
							var got outcome
							irLoops += CountIRLoops(func() { got = fns[k](x, y) })
							if !got.same(want) {
								t.Errorf("%s with x=%v y=%v: %s gives %v, interp %v", r.expr, x, y, numExecutors[k].name, got, want)
							}
						}
					}
				}
				if r.lowers != (irLoops > 0) {
					t.Errorf("IR ran %d loops, lowering expected: %v\n%s", irLoops, r.lowers, src)
				}
			})
		}
	}
}
