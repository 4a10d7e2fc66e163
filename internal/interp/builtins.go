package interp

import (
	"math"
	"strconv"
	"strings"

	"github.com/omp4go/omp4go/internal/minipy"
)

// globalBuiltins returns the builtin functions and exception
// constructors the globals of every interpreter start with.
func globalBuiltins() []*Builtin {
	var out []*Builtin
	reg := func(name string, sig Sig, fn builtinFn) {
		out = append(out, &Builtin{Name: name, Sig: sig, Fn: fn})
	}
	regKw := func(name string, sig Sig,
		fnKw func(th *Thread, args []Value, kwargs map[string]Value) (Value, error)) {
		out = append(out, &Builtin{Name: name, Sig: sig, FnKw: fnKw})
	}

	reg("range", Args(1, 3), func(th *Thread, args []Value) (Value, error) {
		var start, stop, step int64 = 0, 0, 1
		switch len(args) {
		case 1:
			v, ok := asInt(args[0])
			if !ok {
				return nil, typeErrorf(minipy.Position{}, "range() argument must be int")
			}
			stop = v
		default:
			v0, ok0 := asInt(args[0])
			v1, ok1 := asInt(args[1])
			if !ok0 || !ok1 {
				return nil, typeErrorf(minipy.Position{}, "range() arguments must be ints")
			}
			start, stop = v0, v1
			if len(args) == 3 {
				v2, ok := asInt(args[2])
				if !ok {
					return nil, typeErrorf(minipy.Position{}, "range() arguments must be ints")
				}
				if v2 == 0 {
					return nil, FaultStep.Err(minipy.Position{})
				}
				step = v2
			}
		}
		return &Range{Start: start, Stop: stop, Step: step}, nil
	})

	reg("len", Args(1, 1), func(th *Thread, args []Value) (Value, error) {
		switch c := args[0].(type) {
		case *List:
			return int64(c.Len()), nil
		case *Tuple:
			return int64(len(c.Elts)), nil
		case *Dict:
			return int64(c.Len()), nil
		case *Set:
			return int64(c.Len()), nil
		case string:
			return int64(len(c)), nil
		case *Range:
			return c.Len(), nil
		}
		return nil, typeErrorf(minipy.Position{}, "object of type '%s' has no len()", TypeName(args[0]))
	})

	regKw("print", Args(0, -1), printImpl)

	reg("abs", Args(1, 1), func(th *Thread, args []Value) (Value, error) {
		switch v := args[0].(type) {
		case int64:
			if v < 0 {
				return -v, nil
			}
			return v, nil
		case float64:
			return math.Abs(v), nil
		case bool:
			n, _ := asInt(v)
			return n, nil
		}
		return nil, typeErrorf(minipy.Position{}, "bad operand type for abs(): '%s'", TypeName(args[0]))
	})

	reg("min", Args(1, -1), func(th *Thread, args []Value) (Value, error) { return minMax(th, args, true) })
	reg("max", Args(1, -1), func(th *Thread, args []Value) (Value, error) { return minMax(th, args, false) })

	reg("sum", Args(1, 2), func(th *Thread, args []Value) (Value, error) {
		var acc Value = int64(0)
		if len(args) == 2 {
			acc = args[1]
		}
		vals, err := iterValues(args[0])
		if err != nil {
			return nil, err
		}
		for _, v := range vals {
			acc, err = th.binaryOp("+", acc, v, minipy.Position{})
			if err != nil {
				return nil, err
			}
		}
		return acc, nil
	})

	reg("int", Args(0, 1), func(th *Thread, args []Value) (Value, error) {
		if len(args) == 0 {
			return int64(0), nil
		}
		switch v := args[0].(type) {
		case int64:
			return v, nil
		case float64:
			return int64(math.Trunc(v)), nil
		case bool:
			n, _ := asInt(v)
			return n, nil
		case string:
			s := strings.TrimSpace(v)
			var n int64
			var neg bool
			i := 0
			if i < len(s) && (s[i] == '-' || s[i] == '+') {
				neg = s[i] == '-'
				i++
			}
			if i >= len(s) {
				return nil, valueErrorf(minipy.Position{}, "invalid literal for int(): %q", v)
			}
			for ; i < len(s); i++ {
				if s[i] < '0' || s[i] > '9' {
					return nil, valueErrorf(minipy.Position{}, "invalid literal for int(): %q", v)
				}
				n = n*10 + int64(s[i]-'0')
			}
			if neg {
				n = -n
			}
			return n, nil
		}
		return nil, typeErrorf(minipy.Position{}, "int() argument must be a number or string")
	})

	reg("float", Args(0, 1), func(th *Thread, args []Value) (Value, error) {
		if len(args) == 0 {
			return float64(0), nil
		}
		if f, ok := asFloat(args[0]); ok {
			return f, nil
		}
		if s, ok := args[0].(string); ok {
			var f float64
			var err error
			f, err = parseFloatPy(s)
			if err != nil {
				return nil, valueErrorf(minipy.Position{}, "could not convert string to float: %q", s)
			}
			return f, nil
		}
		return nil, typeErrorf(minipy.Position{}, "float() argument must be a number or string")
	})

	reg("str", Args(0, 1), func(th *Thread, args []Value) (Value, error) {
		if len(args) == 0 {
			return "", nil
		}
		return Str(args[0]), nil
	})

	reg("repr", Args(1, 1), func(th *Thread, args []Value) (Value, error) {
		return Repr(args[0]), nil
	})

	reg("bool", Args(0, 1), func(th *Thread, args []Value) (Value, error) {
		if len(args) == 0 {
			return false, nil
		}
		return Truthy(args[0]), nil
	})

	reg("list", Args(0, 1), func(th *Thread, args []Value) (Value, error) {
		if len(args) == 0 {
			return &List{}, nil
		}
		vals, err := iterValues(args[0])
		if err != nil {
			return nil, err
		}
		return NewList(vals), nil
	})

	reg("tuple", Args(0, 1), func(th *Thread, args []Value) (Value, error) {
		if len(args) == 0 {
			return &Tuple{}, nil
		}
		vals, err := iterValues(args[0])
		if err != nil {
			return nil, err
		}
		return &Tuple{Elts: vals}, nil
	})

	reg("dict", Args(0, 1), func(th *Thread, args []Value) (Value, error) {
		d := NewDict()
		if len(args) == 1 {
			if src, ok := args[0].(*Dict); ok {
				for _, kv := range src.Items() {
					if err := d.Set(kv[0], kv[1]); err != nil {
						return nil, err
					}
				}
			}
		}
		return d, nil
	})

	reg("set", Args(0, 1), func(th *Thread, args []Value) (Value, error) {
		s := NewSet()
		if len(args) == 1 {
			vals, err := iterValues(args[0])
			if err != nil {
				return nil, err
			}
			for _, v := range vals {
				if err := s.Add(v); err != nil {
					return nil, err
				}
			}
		}
		return s, nil
	})

	regKw("sorted", Args(1, 1), sortedImpl)

	reg("round", Args(1, 2), func(th *Thread, args []Value) (Value, error) {
		f, ok := asFloat(args[0])
		if !ok {
			return nil, typeErrorf(minipy.Position{}, "round() argument must be a number")
		}
		if len(args) == 2 {
			nd, ok := asInt(args[1])
			if !ok {
				return nil, typeErrorf(minipy.Position{}, "ndigits must be int")
			}
			scale := math.Pow(10, float64(nd))
			return math.RoundToEven(f*scale) / scale, nil
		}
		if _, isInt := args[0].(int64); isInt {
			return args[0], nil
		}
		return int64(math.RoundToEven(f)), nil
	})

	reg("isinstance", Args(2, 2), func(th *Thread, args []Value) (Value, error) {
		checkOne := func(t Value) bool {
			b, ok := t.(*Builtin)
			if !ok {
				return false
			}
			switch b.Name {
			case "int":
				_, ok := args[0].(int64)
				return ok
			case "float":
				_, ok := args[0].(float64)
				return ok
			case "str":
				_, ok := args[0].(string)
				return ok
			case "bool":
				_, ok := args[0].(bool)
				return ok
			case "list":
				_, ok := args[0].(*List)
				return ok
			case "dict":
				_, ok := args[0].(*Dict)
				return ok
			case "set":
				_, ok := args[0].(*Set)
				return ok
			case "tuple":
				_, ok := args[0].(*Tuple)
				return ok
			}
			return false
		}
		if t, ok := args[1].(*Tuple); ok {
			for _, el := range t.Elts {
				if checkOne(el) {
					return true, nil
				}
			}
			return false, nil
		}
		return checkOne(args[1]), nil
	})

	reg("type", Args(1, 1), func(th *Thread, args []Value) (Value, error) {
		return "<class '" + TypeName(args[0]) + "'>", nil
	})

	reg("id", Args(1, 1), func(th *Thread, args []Value) (Value, error) {
		return objectID(args[0]), nil
	})

	reg("ord", Args(1, 1), func(th *Thread, args []Value) (Value, error) {
		s, ok := args[0].(string)
		if !ok || len(s) == 0 {
			return nil, typeErrorf(minipy.Position{}, "ord() expected a character")
		}
		r := []rune(s)
		if len(r) != 1 {
			return nil, typeErrorf(minipy.Position{}, "ord() expected a character, got string of length %d", len(r))
		}
		return int64(r[0]), nil
	})

	reg("chr", Args(1, 1), func(th *Thread, args []Value) (Value, error) {
		n, ok := asInt(args[0])
		if !ok {
			return nil, typeErrorf(minipy.Position{}, "an integer is required")
		}
		return string(rune(n)), nil
	})

	reg("enumerate", Args(1, 2), func(th *Thread, args []Value) (Value, error) {
		start := int64(0)
		if len(args) == 2 {
			v, ok := asInt(args[1])
			if !ok {
				return nil, typeErrorf(minipy.Position{}, "enumerate() start must be int")
			}
			start = v
		}
		vals, err := iterValues(args[0])
		if err != nil {
			return nil, err
		}
		out := make([]Value, len(vals))
		for i, v := range vals {
			out[i] = &Tuple{Elts: []Value{start + int64(i), v}}
		}
		return NewList(out), nil
	})

	reg("zip", Args(0, -1), func(th *Thread, args []Value) (Value, error) {
		lists := make([][]Value, len(args))
		n := -1
		for i, a := range args {
			vals, err := iterValues(a)
			if err != nil {
				return nil, err
			}
			lists[i] = vals
			if n < 0 || len(vals) < n {
				n = len(vals)
			}
		}
		if n < 0 {
			n = 0
		}
		out := make([]Value, n)
		for i := 0; i < n; i++ {
			row := make([]Value, len(lists))
			for j := range lists {
				row[j] = lists[j][i]
			}
			out[i] = &Tuple{Elts: row}
		}
		return NewList(out), nil
	})

	// Exception constructors.
	for _, name := range []string{
		"Exception", "ValueError", "TypeError", "IndexError", "KeyError",
		"ZeroDivisionError", "RuntimeError", "NameError", "AssertionError",
		"StopIteration", "ArithmeticError", "LookupError", "NotImplementedError",
	} {
		excName := name
		reg(excName, Args(0, -1), func(th *Thread, args []Value) (Value, error) {
			var msg Value = ""
			if len(args) == 1 {
				msg = args[0]
			} else if len(args) > 1 {
				msg = &Tuple{Elts: args}
			}
			return &ExcValue{Type: excName, Msg: msg}, nil
		})
	}
	return out
}

func printImpl(th *Thread, args []Value, kwargs map[string]Value) (Value, error) {
	sep, end := " ", "\n"
	if kwargs != nil {
		if v, ok := kwargs["sep"]; ok {
			s, ok := v.(string)
			if !ok {
				return nil, typeErrorf(minipy.Position{}, "sep must be a string")
			}
			sep = s
		}
		if v, ok := kwargs["end"]; ok {
			s, ok := v.(string)
			if !ok {
				return nil, typeErrorf(minipy.Position{}, "end must be a string")
			}
			end = s
		}
	}
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = Str(a)
	}
	th.in.printTo(strings.Join(parts, sep) + end)
	return nil, nil
}

func sortedImpl(th *Thread, args []Value, kwargs map[string]Value) (Value, error) {
	vals, err := iterValues(args[0])
	if err != nil {
		return nil, err
	}
	reverse := false
	var keyFn Value
	if kwargs != nil {
		if v, ok := kwargs["reverse"]; ok {
			reverse = Truthy(v)
		}
		if v, ok := kwargs["key"]; ok {
			keyFn = v
		}
	}
	keys := vals
	if keyFn != nil {
		keys = make([]Value, len(vals))
		for i, v := range vals {
			k, err := th.Call(keyFn, []Value{v}, minipy.Position{})
			if err != nil {
				return nil, err
			}
			keys[i] = k
		}
	}
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	var sortErr error
	stableSort(idx, func(a, b int) bool {
		less, err := valueLess(keys[a], keys[b])
		if err != nil && sortErr == nil {
			sortErr = err
		}
		if reverse {
			gt, err := valueLess(keys[b], keys[a])
			if err != nil && sortErr == nil {
				sortErr = err
			}
			return gt
		}
		return less
	})
	if sortErr != nil {
		return nil, sortErr
	}
	out := make([]Value, len(vals))
	for i, j := range idx {
		out[i] = vals[j]
	}
	return NewList(out), nil
}

func stableSort(idx []int, less func(a, b int) bool) {
	// Insertion sort keeps it simple and stable; sorted() inputs in
	// the benchmarks are modest.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && less(idx[j], idx[j-1]); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

func minMax(th *Thread, args []Value, wantMin bool) (Value, error) {
	var vals []Value
	if len(args) == 1 {
		var err error
		vals, err = iterValues(args[0])
		if err != nil {
			return nil, err
		}
	} else {
		vals = args
	}
	if len(vals) == 0 {
		return nil, valueErrorf(minipy.Position{}, "min()/max() arg is an empty sequence")
	}
	best := vals[0]
	for _, v := range vals[1:] {
		less, err := valueLess(v, best)
		if err != nil {
			return nil, err
		}
		if less == wantMin {
			best = v
		}
	}
	return best, nil
}

// iterValues materializes an iterable into a slice.
func iterValues(v Value) ([]Value, error) {
	switch c := v.(type) {
	case *List:
		return c.Values(), nil
	case *Tuple:
		return append([]Value(nil), c.Elts...), nil
	case *Set:
		return c.Values(), nil
	case *Dict:
		items := c.Items()
		out := make([]Value, len(items))
		for i, kv := range items {
			out[i] = kv[0]
		}
		return out, nil
	case *Range:
		out := make([]Value, 0, c.Len())
		if c.Step > 0 {
			for i := c.Start; i < c.Stop; i += c.Step {
				out = append(out, i)
			}
		} else if c.Step < 0 {
			for i := c.Start; i > c.Stop; i += c.Step {
				out = append(out, i)
			}
		}
		return out, nil
	case string:
		out := make([]Value, 0, len(c))
		for _, r := range c {
			out = append(out, string(r))
		}
		return out, nil
	}
	return nil, &PyError{Type: "TypeError", Msg: "'" + TypeName(v) + "' object is not iterable"}
}

var objectIDs = newIDTable()

type idTable struct {
	mu   chan struct{}
	ids  map[any]int64
	next int64
}

func newIDTable() *idTable {
	t := &idTable{mu: make(chan struct{}, 1), ids: make(map[any]int64), next: 1}
	t.mu <- struct{}{}
	return t
}

// objectID returns a stable identity for reference values (the id()
// builtin, which §V discusses for task dependencies).
func objectID(v Value) int64 {
	switch v.(type) {
	case *List, *Dict, *Set, *Tuple, *Function, *Builtin, *Module:
		<-objectIDs.mu
		defer func() { objectIDs.mu <- struct{}{} }()
		if id, ok := objectIDs.ids[v]; ok {
			return id
		}
		id := objectIDs.next
		objectIDs.next++
		objectIDs.ids[v] = id
		return id
	}
	// Scalars: identity follows value, as CPython interning would.
	k, err := hashKey(v)
	if err != nil {
		return -1
	}
	<-objectIDs.mu
	defer func() { objectIDs.mu <- struct{}{} }()
	if id, ok := objectIDs.ids[k]; ok {
		return id
	}
	id := objectIDs.next
	objectIDs.next++
	objectIDs.ids[k] = id
	return id
}

func parseFloatPy(s string) (float64, error) {
	s = strings.TrimSpace(s)
	switch strings.ToLower(s) {
	case "inf", "+inf", "infinity":
		return math.Inf(1), nil
	case "-inf", "-infinity":
		return math.Inf(-1), nil
	case "nan":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}
