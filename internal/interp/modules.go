package interp

import (
	"math"
	"time"

	"github.com/omp4go/omp4go/internal/minipy"
	"github.com/omp4go/omp4go/internal/ompabi"
)

// prelude is what every interpreter starts from, built once per
// process: the global builtins and the builtin modules. No Builtin in
// it keeps state of its own (random's and time's live on the Interp,
// reached through the calling Thread), so all interpreters share
// them. What a program can assign to, a global binding or a module
// attribute, each interpreter copies (newGlobals, newModules).
var prelude = func() (p struct {
	globals []*Builtin
	modules []moduleProto
}) {
	user, gen := ompModules()
	// The omp name itself is importable from omp4py and predefined so
	// decorated-but-untransformed code still parses and runs.
	p.globals = append(globalBuiltins(), user.Attrs["omp"].(*Builtin))
	for _, m := range []*Module{mathModule(), timeModule(), randomModule(), sysModule(), user, gen} {
		proto := moduleProto{name: m.Name}
		for name, v := range m.Attrs {
			proto.attrs = append(proto.attrs, attr{name, v})
		}
		p.modules = append(p.modules, proto)
	}
	return p
}()

// moduleProto is a prelude module with its attributes as a list, from
// which a map builds in half the time a map clone takes.
type moduleProto struct {
	name  string
	attrs []attr
}

type attr struct {
	name string
	v    Value
}

// newGlobals returns a fresh module-level environment holding the
// prelude's globals, __omp among them.
func newGlobals(modules map[string]*Module) *Env {
	env := &Env{vars: make(map[string]*Cell, len(prelude.globals)+1), shared: true}
	cells := make([]Cell, len(prelude.globals))
	for i, b := range prelude.globals {
		cells[i] = Cell{v: b, set: true}
		env.vars[b.Name] = &cells[i]
	}
	env.DefineValue(ompabi.Module, modules[ompabi.Module])
	return env
}

// newModules returns a copy of each prelude module.
func newModules() map[string]*Module {
	mods := make(map[string]*Module, len(prelude.modules)+1)
	for _, proto := range prelude.modules {
		m := &Module{Name: proto.name, Attrs: make(map[string]Value, len(proto.attrs))}
		for _, a := range proto.attrs {
			m.Attrs[a.name] = a.v
		}
		mods[m.Name] = m
	}
	// omp4py.pure is the explicit Python-runtime import of §III-F; the
	// layer is fixed per interpreter instance, so it aliases the same
	// module here.
	mods["omp4py.pure"] = mods["omp4py"]
	return mods
}

// RegisterModule installs an extra builtin module (the bench package
// exposes graph and corpus substrates this way, playing the role of
// NetworkX and file I/O in the paper's non-numerical benchmarks).
func (in *Interp) RegisterModule(m *Module) { in.modules[m.Name] = m }

// NewModule builds a module of Go-implemented functions, each bound
// under its Name.
func NewModule(name string, fns ...*Builtin) *Module {
	m := &Module{Name: name, Attrs: make(map[string]Value, len(fns))}
	for _, f := range fns {
		m.Attrs[f.Name] = f
	}
	return m
}

func mathFn1(name string, fn func(float64) float64) (string, Value) {
	return name, &Builtin{Name: name, Sig: Args(1, 1), Fn: func(th *Thread, args []Value) (Value, error) {
		f, ok := asFloat(args[0])
		if !ok {
			return nil, typeErrorf(minipy.Position{}, "must be real number, not %s", TypeName(args[0]))
		}
		r := fn(f)
		if math.IsNaN(r) && !math.IsNaN(f) {
			return nil, FaultDomain.Err(minipy.Position{})
		}
		return r, nil
	}}
}

func mathModule() *Module {
	attrs := map[string]Value{
		"pi":  math.Pi,
		"e":   math.E,
		"inf": math.Inf(1),
		"nan": math.NaN(),
		"tau": 2 * math.Pi,
	}
	put := func(name string, v Value) { attrs[name] = v }
	put(mathFn1("sqrt", math.Sqrt))
	put(mathFn1("sin", math.Sin))
	put(mathFn1("cos", math.Cos))
	put(mathFn1("tan", math.Tan))
	put(mathFn1("asin", math.Asin))
	put(mathFn1("acos", math.Acos))
	put(mathFn1("atan", math.Atan))
	put(mathFn1("exp", math.Exp))
	put(mathFn1("log", math.Log))
	put(mathFn1("log2", math.Log2))
	put(mathFn1("log10", math.Log10))
	put(mathFn1("fabs", math.Abs))
	attrs["floor"] = &Builtin{Name: "floor", Sig: Args(1, 1), Fn: func(th *Thread, args []Value) (Value, error) {
		f, ok := asFloat(args[0])
		if !ok {
			return nil, typeErrorf(minipy.Position{}, "must be real number")
		}
		return int64(math.Floor(f)), nil
	}}
	attrs["ceil"] = &Builtin{Name: "ceil", Sig: Args(1, 1), Fn: func(th *Thread, args []Value) (Value, error) {
		f, ok := asFloat(args[0])
		if !ok {
			return nil, typeErrorf(minipy.Position{}, "must be real number")
		}
		return int64(math.Ceil(f)), nil
	}}
	attrs["pow"] = &Builtin{Name: "pow", Sig: Args(2, 2), Fn: func(th *Thread, args []Value) (Value, error) {
		a, ok1 := asFloat(args[0])
		b, ok2 := asFloat(args[1])
		if !ok1 || !ok2 {
			return nil, typeErrorf(minipy.Position{}, "must be real numbers")
		}
		return math.Pow(a, b), nil
	}}
	attrs["atan2"] = &Builtin{Name: "atan2", Sig: Args(2, 2), Fn: func(th *Thread, args []Value) (Value, error) {
		a, ok1 := asFloat(args[0])
		b, ok2 := asFloat(args[1])
		if !ok1 || !ok2 {
			return nil, typeErrorf(minipy.Position{}, "must be real numbers")
		}
		return math.Atan2(a, b), nil
	}}
	attrs["fmod"] = &Builtin{Name: "fmod", Sig: Args(2, 2), Fn: func(th *Thread, args []Value) (Value, error) {
		a, ok1 := asFloat(args[0])
		b, ok2 := asFloat(args[1])
		if !ok1 || !ok2 {
			return nil, typeErrorf(minipy.Position{}, "must be real numbers")
		}
		return math.Mod(a, b), nil
	}}
	attrs["isnan"] = &Builtin{Name: "isnan", Sig: Args(1, 1), Fn: func(th *Thread, args []Value) (Value, error) {
		f, ok := asFloat(args[0])
		if !ok {
			return nil, typeErrorf(minipy.Position{}, "must be real number")
		}
		return math.IsNaN(f), nil
	}}
	attrs["isinf"] = &Builtin{Name: "isinf", Sig: Args(1, 1), Fn: func(th *Thread, args []Value) (Value, error) {
		f, ok := asFloat(args[0])
		if !ok {
			return nil, typeErrorf(minipy.Position{}, "must be real number")
		}
		return math.IsInf(f, 0), nil
	}}
	return &Module{Name: "math", Attrs: attrs}
}

func timeModule() *Module {
	return &Module{Name: "time", Attrs: map[string]Value{
		"time": &Builtin{Name: "time", Sig: Args(0, 0), Fn: func(th *Thread, args []Value) (Value, error) {
			return float64(time.Now().UnixNano()) / 1e9, nil
		}},
		"perf_counter": &Builtin{Name: "perf_counter", Sig: Args(0, 0), Fn: func(th *Thread, args []Value) (Value, error) {
			return time.Since(th.in.epoch).Seconds(), nil
		}},
		"sleep": &Builtin{Name: "sleep", Sig: Args(1, 1), ReleasesGIL: true,
			Fn: func(th *Thread, args []Value) (Value, error) {
				f, ok := asFloat(args[0])
				if !ok || f < 0 {
					return nil, valueErrorf(minipy.Position{}, "sleep length must be non-negative")
				}
				time.Sleep(time.Duration(f * float64(time.Second)))
				return nil, nil
			}},
	}}
}

// randSeed is the random module's state before any random.seed().
const randSeed = 0x9E3779B97F4A7C15

// randNext advances the interpreter's xorshift state.
func (in *Interp) randNext() uint64 {
	in.randMu.Lock()
	in.rand ^= in.rand << 13
	in.rand ^= in.rand >> 7
	in.rand ^= in.rand << 17
	v := in.rand
	in.randMu.Unlock()
	return v
}

// randomModule is a deterministic xorshift-based stand-in for
// CPython's Mersenne Twister; the artifact's data sets are "synthetic
// data generated from a fixed seed".
func randomModule() *Module {
	return &Module{Name: "random", Attrs: map[string]Value{
		"seed": &Builtin{Name: "seed", Sig: Args(0, 1), Fn: func(th *Thread, args []Value) (Value, error) {
			n := int64(0)
			if len(args) == 1 {
				v, ok := asInt(args[0])
				if !ok {
					return nil, typeErrorf(minipy.Position{}, "seed must be int")
				}
				n = v
			}
			th.in.randMu.Lock()
			th.in.rand = uint64(n)*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
			if th.in.rand == 0 {
				th.in.rand = 1
			}
			th.in.randMu.Unlock()
			return nil, nil
		}},
		"random": &Builtin{Name: "random", Sig: Args(0, 0), Fn: func(th *Thread, args []Value) (Value, error) {
			return float64(th.in.randNext()>>11) / float64(1<<53), nil
		}},
		"randint": &Builtin{Name: "randint", Sig: Args(2, 2), Fn: func(th *Thread, args []Value) (Value, error) {
			a, ok1 := asInt(args[0])
			b, ok2 := asInt(args[1])
			if !ok1 || !ok2 || b < a {
				return nil, valueErrorf(minipy.Position{}, "invalid randint bounds")
			}
			return a + int64(th.in.randNext()%uint64(b-a+1)), nil
		}},
		"uniform": &Builtin{Name: "uniform", Sig: Args(2, 2), Fn: func(th *Thread, args []Value) (Value, error) {
			a, ok1 := asFloat(args[0])
			b, ok2 := asFloat(args[1])
			if !ok1 || !ok2 {
				return nil, typeErrorf(minipy.Position{}, "uniform bounds must be numbers")
			}
			f := float64(th.in.randNext()>>11) / float64(1<<53)
			return a + f*(b-a), nil
		}},
		"shuffle": &Builtin{Name: "shuffle", Sig: Args(1, 1), Fn: func(th *Thread, args []Value) (Value, error) {
			l, ok := args[0].(*List)
			if !ok {
				return nil, typeErrorf(minipy.Position{}, "shuffle() argument must be list")
			}
			n := l.Len()
			for i := n - 1; i > 0; i-- {
				j := int(th.in.randNext() % uint64(i+1))
				a, b := l.Get(i), l.Get(j)
				l.Set(i, b)
				l.Set(j, a)
			}
			return nil, nil
		}},
	}}
}

func sysModule() *Module {
	return &Module{Name: "sys", Attrs: map[string]Value{
		"maxsize": int64(^uint64(0) >> 1),
		"version": "minipy 1.0 (omp4go reproduction of OMP4Py)",
	}}
}
