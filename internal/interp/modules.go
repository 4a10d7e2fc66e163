package interp

import (
	"math"
	"sync"
	"time"

	"github.com/omp4go/omp4go/internal/minipy"
)

func (in *Interp) installModules() {
	in.modules["math"] = in.mathModule()
	in.modules["time"] = in.timeModule()
	in.modules["random"] = in.randomModule()
	in.modules["sys"] = in.sysModule()
	in.installOmpModule()
}

// RegisterModule installs an extra builtin module (the bench package
// exposes graph and corpus substrates this way, playing the role of
// NetworkX and file I/O in the paper's non-numerical benchmarks).
func (in *Interp) RegisterModule(m *Module) { in.modules[m.Name] = m }

func mathFn1(name string, fn func(float64) float64) (string, Value) {
	return name, &Builtin{Name: name, Fn: func(th *Thread, args []Value) (Value, error) {
		if len(args) != 1 {
			return nil, typeErrorf(minipy.Position{}, "%s() takes exactly one argument", name)
		}
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

func (in *Interp) mathModule() *Module {
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
	attrs["floor"] = &Builtin{Name: "floor", Fn: func(th *Thread, args []Value) (Value, error) {
		f, ok := asFloat(args[0])
		if !ok {
			return nil, typeErrorf(minipy.Position{}, "must be real number")
		}
		return int64(math.Floor(f)), nil
	}}
	attrs["ceil"] = &Builtin{Name: "ceil", Fn: func(th *Thread, args []Value) (Value, error) {
		f, ok := asFloat(args[0])
		if !ok {
			return nil, typeErrorf(minipy.Position{}, "must be real number")
		}
		return int64(math.Ceil(f)), nil
	}}
	attrs["pow"] = &Builtin{Name: "pow", Fn: func(th *Thread, args []Value) (Value, error) {
		if len(args) != 2 {
			return nil, typeErrorf(minipy.Position{}, "pow() takes exactly two arguments")
		}
		a, ok1 := asFloat(args[0])
		b, ok2 := asFloat(args[1])
		if !ok1 || !ok2 {
			return nil, typeErrorf(minipy.Position{}, "must be real numbers")
		}
		return math.Pow(a, b), nil
	}}
	attrs["atan2"] = &Builtin{Name: "atan2", Fn: func(th *Thread, args []Value) (Value, error) {
		if len(args) != 2 {
			return nil, typeErrorf(minipy.Position{}, "atan2() takes exactly two arguments")
		}
		a, ok1 := asFloat(args[0])
		b, ok2 := asFloat(args[1])
		if !ok1 || !ok2 {
			return nil, typeErrorf(minipy.Position{}, "must be real numbers")
		}
		return math.Atan2(a, b), nil
	}}
	attrs["fmod"] = &Builtin{Name: "fmod", Fn: func(th *Thread, args []Value) (Value, error) {
		if len(args) != 2 {
			return nil, typeErrorf(minipy.Position{}, "fmod() takes exactly two arguments")
		}
		a, ok1 := asFloat(args[0])
		b, ok2 := asFloat(args[1])
		if !ok1 || !ok2 {
			return nil, typeErrorf(minipy.Position{}, "must be real numbers")
		}
		return math.Mod(a, b), nil
	}}
	attrs["isnan"] = &Builtin{Name: "isnan", Fn: func(th *Thread, args []Value) (Value, error) {
		f, ok := asFloat(args[0])
		if !ok {
			return nil, typeErrorf(minipy.Position{}, "must be real number")
		}
		return math.IsNaN(f), nil
	}}
	attrs["isinf"] = &Builtin{Name: "isinf", Fn: func(th *Thread, args []Value) (Value, error) {
		f, ok := asFloat(args[0])
		if !ok {
			return nil, typeErrorf(minipy.Position{}, "must be real number")
		}
		return math.IsInf(f, 0), nil
	}}
	return &Module{Name: "math", Attrs: attrs}
}

func (in *Interp) timeModule() *Module {
	epoch := time.Now()
	return &Module{Name: "time", Attrs: map[string]Value{
		"time": &Builtin{Name: "time", Fn: func(th *Thread, args []Value) (Value, error) {
			return float64(time.Now().UnixNano()) / 1e9, nil
		}},
		"perf_counter": &Builtin{Name: "perf_counter", Fn: func(th *Thread, args []Value) (Value, error) {
			return time.Since(epoch).Seconds(), nil
		}},
		"sleep": &Builtin{Name: "sleep", ReleasesGIL: true,
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

// randomModule is a deterministic xorshift-based stand-in for
// CPython's Mersenne Twister; the artifact's data sets are "synthetic
// data generated from a fixed seed".
func (in *Interp) randomModule() *Module {
	var mu sync.Mutex
	state := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		mu.Lock()
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		v := state
		mu.Unlock()
		return v
	}
	return &Module{Name: "random", Attrs: map[string]Value{
		"seed": &Builtin{Name: "seed", Fn: func(th *Thread, args []Value) (Value, error) {
			n := int64(0)
			if len(args) == 1 {
				v, ok := asInt(args[0])
				if !ok {
					return nil, typeErrorf(minipy.Position{}, "seed must be int")
				}
				n = v
			}
			mu.Lock()
			state = uint64(n)*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
			if state == 0 {
				state = 1
			}
			mu.Unlock()
			return nil, nil
		}},
		"random": &Builtin{Name: "random", Fn: func(th *Thread, args []Value) (Value, error) {
			return float64(next()>>11) / float64(1<<53), nil
		}},
		"randint": &Builtin{Name: "randint", Fn: func(th *Thread, args []Value) (Value, error) {
			if len(args) != 2 {
				return nil, typeErrorf(minipy.Position{}, "randint() takes two arguments")
			}
			a, ok1 := asInt(args[0])
			b, ok2 := asInt(args[1])
			if !ok1 || !ok2 || b < a {
				return nil, valueErrorf(minipy.Position{}, "invalid randint bounds")
			}
			return a + int64(next()%uint64(b-a+1)), nil
		}},
		"uniform": &Builtin{Name: "uniform", Fn: func(th *Thread, args []Value) (Value, error) {
			if len(args) != 2 {
				return nil, typeErrorf(minipy.Position{}, "uniform() takes two arguments")
			}
			a, ok1 := asFloat(args[0])
			b, ok2 := asFloat(args[1])
			if !ok1 || !ok2 {
				return nil, typeErrorf(minipy.Position{}, "uniform bounds must be numbers")
			}
			f := float64(next()>>11) / float64(1<<53)
			return a + f*(b-a), nil
		}},
		"shuffle": &Builtin{Name: "shuffle", Fn: func(th *Thread, args []Value) (Value, error) {
			l, ok := args[0].(*List)
			if !ok {
				return nil, typeErrorf(minipy.Position{}, "shuffle() argument must be list")
			}
			n := l.Len()
			for i := n - 1; i > 0; i-- {
				j := int(next() % uint64(i+1))
				a, b := l.Get(i), l.Get(j)
				l.Set(i, b)
				l.Set(j, a)
			}
			return nil, nil
		}},
	}}
}

func (in *Interp) sysModule() *Module {
	return &Module{Name: "sys", Attrs: map[string]Value{
		"maxsize": int64(^uint64(0) >> 1),
		"version": "minipy 1.0 (omp4go reproduction of OMP4Py)",
	}}
}
