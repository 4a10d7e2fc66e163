package interp

import (
	"errors"
	"math"
	"strings"

	"github.com/omp4go/omp4go/internal/minipy"
)

func (th *Thread) evalExpr(fr *frame, e minipy.Expr) (Value, error) {
	if err := th.tick(e.NodePos()); err != nil {
		return nil, err
	}
	switch t := e.(type) {
	case *minipy.Name:
		return th.lookupName(fr, t)
	case *minipy.IntLit:
		th.account()
		return t.V, nil
	case *minipy.FloatLit:
		th.account()
		return t.V, nil
	case *minipy.StrLit:
		return t.V, nil
	case *minipy.BoolLit:
		return t.V, nil
	case *minipy.NoneLit:
		return nil, nil
	case *minipy.BinOp:
		l, err := th.evalExpr(fr, t.L)
		if err != nil {
			return nil, err
		}
		r, err := th.evalExpr(fr, t.R)
		if err != nil {
			return nil, err
		}
		return th.binaryOp(t.Op, l, r, t.NodePos())
	case *minipy.BoolOp:
		if t.Op == "and" {
			var v Value
			for _, sub := range t.Values {
				var err error
				v, err = th.evalExpr(fr, sub)
				if err != nil {
					return nil, err
				}
				if !Truthy(v) {
					return v, nil
				}
			}
			return v, nil
		}
		var v Value
		for _, sub := range t.Values {
			var err error
			v, err = th.evalExpr(fr, sub)
			if err != nil {
				return nil, err
			}
			if Truthy(v) {
				return v, nil
			}
		}
		return v, nil
	case *minipy.UnaryOp:
		x, err := th.evalExpr(fr, t.X)
		if err != nil {
			return nil, err
		}
		return th.unaryOp(t.Op, x, t.NodePos())
	case *minipy.Compare:
		l, err := th.evalExpr(fr, t.L)
		if err != nil {
			return nil, err
		}
		for i, op := range t.Ops {
			r, err := th.evalExpr(fr, t.Rights[i])
			if err != nil {
				return nil, err
			}
			ok, err := th.compareOp(op, l, r, t.NodePos())
			if err != nil {
				return nil, err
			}
			if !ok {
				return false, nil
			}
			l = r
		}
		return true, nil
	case *minipy.Call:
		return th.evalCall(fr, t)
	case *minipy.Attribute:
		obj, err := th.evalExpr(fr, t.X)
		if err != nil {
			return nil, err
		}
		return th.getAttr(obj, t.Name, t.NodePos())
	case *minipy.Index:
		cont, err := th.evalExpr(fr, t.X)
		if err != nil {
			return nil, err
		}
		idx, err := th.evalExpr(fr, t.I)
		if err != nil {
			return nil, err
		}
		return th.getItem(cont, idx, t.NodePos())
	case *minipy.SliceExpr:
		return th.evalSlice(fr, t)
	case *minipy.ListLit:
		elts := make([]Value, len(t.Elts))
		for i, el := range t.Elts {
			v, err := th.evalExpr(fr, el)
			if err != nil {
				return nil, err
			}
			elts[i] = v
		}
		th.account()
		return NewList(elts), nil
	case *minipy.TupleLit:
		elts := make([]Value, len(t.Elts))
		for i, el := range t.Elts {
			v, err := th.evalExpr(fr, el)
			if err != nil {
				return nil, err
			}
			elts[i] = v
		}
		th.account()
		return &Tuple{Elts: elts}, nil
	case *minipy.DictLit:
		d := NewDict()
		for i := range t.Keys {
			k, err := th.evalExpr(fr, t.Keys[i])
			if err != nil {
				return nil, err
			}
			v, err := th.evalExpr(fr, t.Vals[i])
			if err != nil {
				return nil, err
			}
			if err := d.Set(k, v); err != nil {
				return nil, err
			}
		}
		th.account()
		return d, nil
	case *minipy.SetLit:
		s := NewSet()
		for _, el := range t.Elts {
			v, err := th.evalExpr(fr, el)
			if err != nil {
				return nil, err
			}
			if err := s.Add(v); err != nil {
				return nil, err
			}
		}
		th.account()
		return s, nil
	case *minipy.IfExp:
		cond, err := th.evalExpr(fr, t.Cond)
		if err != nil {
			return nil, err
		}
		if Truthy(cond) {
			return th.evalExpr(fr, t.Then)
		}
		return th.evalExpr(fr, t.Else)
	case *minipy.Lambda:
		fn := &Function{
			Name:    "<lambda>",
			Params:  t.Params,
			Result:  t.Body,
			Env:     fr.env,
			Scope:   t.Scope,
			Globals: fr.globals,
		}
		for _, p := range t.Params {
			if p.Default == nil {
				fn.Defaults = append(fn.Defaults, nil)
				continue
			}
			v, err := th.evalExpr(fr, p.Default)
			if err != nil {
				return nil, err
			}
			fn.Defaults = append(fn.Defaults, v)
		}
		return fn, nil
	}
	return nil, typeErrorf(e.NodePos(), "unsupported expression %T", e)
}

func (th *Thread) lookupName(fr *frame, t *minipy.Name) (Value, error) {
	if fr.scope != nil && fr.scope.IsLocal(t.ID) {
		if c, ok := fr.env.Lookup(t.ID); ok {
			if v, set := c.Get(); set {
				return v, nil
			}
		}
		return nil, &PyError{Type: "UnboundLocalError",
			Msg: "local variable '" + t.ID + "' referenced before assignment", Pos: t.NodePos()}
	}
	if fr.scope != nil && fr.scope.Globals[t.ID] {
		if c, ok := fr.globals.Lookup(t.ID); ok {
			if v, set := c.Get(); set {
				return v, nil
			}
		}
		return nil, nameErrorf(t.NodePos(), "name %q is not defined", t.ID)
	}
	for env := fr.env; env != nil; env = env.parent {
		if c, ok := env.Lookup(t.ID); ok {
			if v, set := c.Get(); set {
				return v, nil
			}
		}
	}
	// Fall back to module globals (the function may have been
	// defined in a chain that does not end at them).
	if c, ok := fr.globals.Lookup(t.ID); ok {
		if v, set := c.Get(); set {
			return v, nil
		}
	}
	return nil, nameErrorf(t.NodePos(), "name %q is not defined", t.ID)
}

func (th *Thread) evalCall(fr *frame, t *minipy.Call) (Value, error) {
	fn, err := th.evalExpr(fr, t.Fn)
	if err != nil {
		return nil, err
	}
	args := make([]Value, len(t.Args))
	for i, a := range t.Args {
		v, err := th.evalExpr(fr, a)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	if len(t.Keywords) == 0 {
		return th.Call(fn, args, t.NodePos())
	}
	kwargs := make(map[string]Value, len(t.Keywords))
	for _, kw := range t.Keywords {
		v, err := th.evalExpr(fr, kw.Value)
		if err != nil {
			return nil, err
		}
		kwargs[kw.Name] = v
	}
	return th.CallKw(fn, args, kwargs, t.NodePos())
}

// Call invokes a callable value.
func (th *Thread) Call(fn Value, args []Value, pos minipy.Position) (Value, error) {
	return th.CallKw(fn, args, nil, pos)
}

// CallKw invokes a callable value with keyword arguments.
func (th *Thread) CallKw(fn Value, args []Value, kwargs map[string]Value, pos minipy.Position) (v Value, err error) {
	if err := th.tick(pos); err != nil {
		return nil, err
	}
	switch f := fn.(type) {
	case *Function:
		return th.callFunction(f, args, kwargs, pos)
	case *Builtin:
		if f.Sig.rejects(len(args)) {
			return nil, f.Sig.arityError(f.Name, len(args), pos)
		}
		switch {
		case len(kwargs) > 0 && f.FnKw == nil:
			return nil, typeErrorf(pos, "%s() takes no keyword arguments", f.Name)
		case len(kwargs) > 0 || f.Fn == nil:
			v, err = f.FnKw(th, args, kwargs)
		case f.ReleasesGIL && th.in.gil != nil:
			gerr := th.callBlocking(func() error {
				v, err = f.Fn(th, args)
				return nil
			})
			if gerr != nil {
				return nil, gerr
			}
		default:
			v, err = f.Fn(th, args)
		}
	case *BoundMethod:
		if len(kwargs) > 0 {
			return nil, typeErrorf(pos, "method %s() takes no keyword arguments", f.Name)
		}
		if f.Sig.rejects(len(args)) {
			return nil, f.Sig.arityError(f.Name, len(args), pos)
		}
		v, err = f.Fn(th, f.Recv, args)
	default:
		return nil, typeErrorf(pos, "'%s' object is not callable", TypeName(fn))
	}
	// A builtin or bound method has no source position of its own: an
	// exception it raises without one is raised at the call site.
	if err != nil {
		var pe *PyError // escapes: declared on the error path only
		if errors.As(err, &pe) && pe.Pos.Line == 0 {
			pe.Pos = pos
		}
	}
	return v, err
}

func (th *Thread) callFunction(f *Function, args []Value, kwargs map[string]Value, pos minipy.Position) (Value, error) {
	if f.Compiled != nil && len(kwargs) == 0 {
		return f.Compiled(th, args)
	}
	if len(args) > len(f.Params) {
		return nil, typeErrorf(pos, "%s() takes %d positional arguments but %d were given",
			f.Name, len(f.Params), len(args))
	}
	env := NewEnv(f.Env)
	used := 0
	for i, p := range f.Params {
		var v Value
		switch {
		case i < len(args):
			v = args[i]
		case kwargs != nil && hasKey(kwargs, p.Name):
			v = kwargs[p.Name]
			used++
		case f.Defaults[i] != nil || p.Default != nil:
			v = f.Defaults[i]
		default:
			return nil, typeErrorf(pos, "%s() missing required argument: '%s'", f.Name, p.Name)
		}
		env.DefineValue(p.Name, v)
	}
	if kwargs != nil && used < len(kwargs) {
		for k := range kwargs {
			known := false
			for _, p := range f.Params {
				if p.Name == k {
					known = true
					break
				}
			}
			if !known {
				return nil, typeErrorf(pos, "%s() got an unexpected keyword argument '%s'", f.Name, k)
			}
		}
	}
	// Pre-bind every local so the env map is fully populated before
	// the body runs. Assignments then only store into existing cells,
	// never insert map keys — which makes the lock-free concurrent
	// Lookups performed by escaped closures (tasks capturing this
	// frame's env while the owner keeps executing) safe. Unset cells
	// still surface as UnboundLocalError on read.
	if f.Scope != nil {
		for _, name := range f.Scope.Locals {
			env.Define(name)
		}
	}
	fr := &frame{env: env, globals: f.Globals, scope: f.Scope}
	if f.Result != nil {
		return th.evalExpr(fr, f.Result)
	}
	err := th.execStmts(fr, f.Body)
	if err != nil {
		if ret, ok := err.(returnSignal); ok {
			return ret.v, nil
		}
		return nil, err
	}
	return nil, nil
}

func hasKey(m map[string]Value, k string) bool {
	_, ok := m[k]
	return ok
}

func (th *Thread) evalSlice(fr *frame, t *minipy.SliceExpr) (Value, error) {
	cont, err := th.evalExpr(fr, t.X)
	if err != nil {
		return nil, err
	}
	var parts [3]int64
	var set [3]bool
	for i, e := range []minipy.Expr{t.Lo, t.Hi, t.Step} {
		if e == nil {
			continue
		}
		v, err := th.evalExpr(fr, e)
		if err != nil {
			return nil, err
		}
		n, ok := asInt(v)
		if !ok {
			return nil, typeErrorf(t.NodePos(), "slice indices must be integers")
		}
		parts[i], set[i] = n, true
	}
	return SliceOf(cont, set[0], parts[0], set[1], parts[1], set[2], parts[2], t.NodePos())
}

// SliceOf implements x[lo:hi:step] on lists, strings, and tuples; the
// Set flags distinguish omitted parts from explicit values. It is
// shared by the interpreter and the compiled code path.
func SliceOf(cont Value, loSet bool, lo int64, hiSet bool, hi int64,
	stepSet bool, step int64, pos minipy.Position) (Value, error) {
	if !stepSet {
		step = 1
	}
	if step == 0 {
		return nil, valueErrorf(pos, "slice step cannot be zero")
	}
	var length int64
	switch c := cont.(type) {
	case *List:
		length = int64(c.Len())
	case string:
		length = int64(len(c))
	case *Tuple:
		length = int64(len(c.Elts))
	default:
		return nil, typeErrorf(pos, "'%s' object is not subscriptable", TypeName(cont))
	}
	if !loSet {
		if step > 0 {
			lo = 0
		} else {
			lo = length - 1
		}
	}
	if !hiSet {
		if step > 0 {
			hi = length
		} else {
			hi = -length - 1
		}
	}
	lo = clampSliceIndex(lo, length, step)
	hi = clampSliceIndex(hi, length, step)
	switch c := cont.(type) {
	case *List:
		return c.Slice(int(lo), int(hi), int(step)), nil
	case string:
		var b strings.Builder
		if step > 0 {
			for i := lo; i < hi; i += step {
				b.WriteByte(c[i])
			}
		} else {
			for i := lo; i > hi; i += step {
				b.WriteByte(c[i])
			}
		}
		return b.String(), nil
	case *Tuple:
		var elts []Value
		if step > 0 {
			for i := lo; i < hi; i += step {
				elts = append(elts, c.Elts[i])
			}
		} else {
			for i := lo; i > hi; i += step {
				elts = append(elts, c.Elts[i])
			}
		}
		return &Tuple{Elts: elts}, nil
	}
	return nil, typeErrorf(pos, "unreachable slice")
}

func clampSliceIndex(i, length, step int64) int64 {
	if i < 0 {
		i += length
	}
	if step > 0 {
		if i < 0 {
			i = 0
		}
		if i > length {
			i = length
		}
	} else {
		if i < -1 {
			i = -1
		}
		if i > length-1 {
			i = length - 1
		}
	}
	return i
}

// getItem implements container[index].
func (th *Thread) getItem(cont, idx Value, pos minipy.Position) (Value, error) {
	switch c := cont.(type) {
	case *BoundsVal:
		// Generated code reads the chunk bounds like the
		// __omp_bounds array of Fig. 3.
		i, ok := asInt(idx)
		if !ok {
			return nil, typeErrorf(pos, "loop bounds indices must be integers")
		}
		switch i {
		case 0:
			return c.B.LoValue(), nil
		case 1:
			return c.B.HiValue(), nil
		case 2:
			return c.B.Triplets[0].Step, nil
		}
		return nil, &PyError{Type: "IndexError", Msg: "loop bounds index out of range", Pos: pos}
	case *List:
		i, ok := asInt(idx)
		if !ok {
			return nil, typeErrorf(pos, "list indices must be integers, not %s", TypeName(idx))
		}
		n := int64(c.Len())
		if i < 0 {
			i += n
		}
		if i < 0 || i >= n {
			return nil, FaultLoad.Err(pos)
		}
		return c.Get(int(i)), nil
	case *Tuple:
		i, ok := asInt(idx)
		if !ok {
			return nil, typeErrorf(pos, "tuple indices must be integers")
		}
		n := int64(len(c.Elts))
		if i < 0 {
			i += n
		}
		if i < 0 || i >= n {
			return nil, &PyError{Type: "IndexError", Msg: "tuple index out of range", Pos: pos}
		}
		return c.Elts[i], nil
	case *Dict:
		v, ok, err := c.Get(idx)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, &PyError{Type: "KeyError", Msg: Repr(idx), Pos: pos}
		}
		return v, nil
	case string:
		i, ok := asInt(idx)
		if !ok {
			return nil, typeErrorf(pos, "string indices must be integers")
		}
		n := int64(len(c))
		if i < 0 {
			i += n
		}
		if i < 0 || i >= n {
			return nil, &PyError{Type: "IndexError", Msg: "string index out of range", Pos: pos}
		}
		return string(c[i]), nil
	}
	return nil, typeErrorf(pos, "'%s' object is not subscriptable", TypeName(cont))
}

// setItem implements container[index] = value.
func (th *Thread) setItem(cont, idx, v Value, pos minipy.Position) error {
	switch c := cont.(type) {
	case *List:
		i, ok := asInt(idx)
		if !ok {
			return typeErrorf(pos, "list indices must be integers, not %s", TypeName(idx))
		}
		n := int64(c.Len())
		if i < 0 {
			i += n
		}
		if i < 0 || i >= n {
			return FaultStore.Err(pos)
		}
		c.Set(int(i), v)
		return nil
	case *Dict:
		return c.Set(idx, v)
	}
	return typeErrorf(pos, "'%s' object does not support item assignment", TypeName(cont))
}

// asInt extracts an int64 from int64 or bool (Python treats bools as
// ints in numeric positions).
func asInt(v Value) (int64, bool) {
	switch t := v.(type) {
	case int64:
		return t, true
	case bool:
		if t {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

func asFloat(v Value) (float64, bool) {
	switch t := v.(type) {
	case float64:
		return t, true
	case int64:
		return float64(t), true
	case bool:
		if t {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// binaryOp implements MiniPy's binary operators with Python numeric
// semantics (true division yields float; floor division and modulo
// follow the sign of the divisor).
func (th *Thread) binaryOp(op string, l, r Value, pos minipy.Position) (Value, error) {
	// Fast numeric paths first.
	li, lIsInt := l.(int64)
	ri, rIsInt := r.(int64)
	if lIsInt && rIsInt {
		return th.intOp(op, li, ri, pos)
	}
	lf, lIsNum := asFloat(l)
	rf, rIsNum := asFloat(r)
	if lIsNum && rIsNum {
		// Mixed int/float (or bools): float semantics, except that
		// two ints were handled above.
		if isIntLike(l) && isIntLike(r) {
			la, _ := asInt(l)
			ra, _ := asInt(r)
			return th.intOp(op, la, ra, pos)
		}
		return th.floatOp(op, lf, rf, pos)
	}
	switch op {
	case "+":
		switch a := l.(type) {
		case string:
			if b, ok := r.(string); ok {
				th.account()
				return a + b, nil
			}
		case *List:
			if b, ok := r.(*List); ok {
				th.account()
				return NewList(append(a.Values(), b.Values()...)), nil
			}
		case *Tuple:
			if b, ok := r.(*Tuple); ok {
				th.account()
				return &Tuple{Elts: append(append([]Value{}, a.Elts...), b.Elts...)}, nil
			}
		}
	case "*":
		if s, ok := l.(string); ok {
			if n, ok := asInt(r); ok {
				th.account()
				return strings.Repeat(s, intMax0(n)), nil
			}
		}
		if n, ok := asInt(l); ok {
			if s, ok := r.(string); ok {
				th.account()
				return strings.Repeat(s, intMax0(n)), nil
			}
		}
		if lst, ok := l.(*List); ok {
			if n, ok := asInt(r); ok {
				return repeatList(lst, n), nil
			}
		}
		if n, ok := asInt(l); ok {
			if lst, ok := r.(*List); ok {
				return repeatList(lst, n), nil
			}
		}
	case "%":
		// String formatting with %: minimal support for "%s"/"%d".
		if s, ok := l.(string); ok {
			return pyFormat(s, r), nil
		}
	}
	return nil, typeErrorf(pos, "unsupported operand type(s) for %s: '%s' and '%s'",
		op, TypeName(l), TypeName(r))
}

func isIntLike(v Value) bool {
	switch v.(type) {
	case int64, bool:
		return true
	}
	return false
}

func intMax0(n int64) int {
	if n < 0 {
		return 0
	}
	return int(n)
}

func repeatList(l *List, n int64) *List {
	vals := l.Values()
	out := make([]Value, 0, int(n)*len(vals))
	for i := int64(0); i < n; i++ {
		out = append(out, vals...)
	}
	return NewList(out)
}

// intOp and floatOp dispatch on the operator inline (they are the
// interpreter's hottest path); the operators that can fail are computed
// by the shared definitions in numops.go.
func (th *Thread) intOp(op string, a, b int64, pos minipy.Position) (Value, error) {
	th.account()
	var v int64
	var ft Fault
	switch op {
	case "+":
		return a + b, nil
	case "-":
		return a - b, nil
	case "*":
		return a * b, nil
	case "/":
		// True division of ints is float division, in every mode.
		f, ft := DivF(float64(a), float64(b))
		if ft != FaultNone {
			return nil, ft.Err(pos)
		}
		return f, nil
	case "//":
		v, ft = FloorDivI(a, b)
	case "%":
		v, ft = ModI(a, b)
	case "**":
		if b < 0 {
			return math.Pow(float64(a), float64(b)), nil
		}
		result := int64(1)
		base := a
		exp := b
		for exp > 0 {
			if exp&1 == 1 {
				result *= base
			}
			base *= base
			exp >>= 1
		}
		return result, nil
	case "&":
		return a & b, nil
	case "|":
		return a | b, nil
	case "^":
		return a ^ b, nil
	case "<<":
		v, ft = ShlI(a, b)
	case ">>":
		v, ft = ShrI(a, b)
	default:
		return nil, typeErrorf(pos, "unsupported int operator %q", op)
	}
	if ft != FaultNone {
		return nil, ft.Err(pos)
	}
	return v, nil
}

func (th *Thread) floatOp(op string, a, b float64, pos minipy.Position) (Value, error) {
	th.account()
	var v float64
	var ft Fault
	switch op {
	case "+":
		return a + b, nil
	case "-":
		return a - b, nil
	case "*":
		return a * b, nil
	case "/":
		v, ft = DivF(a, b)
	case "//":
		v, ft = FloorDivF(a, b)
	case "%":
		v, ft = ModF(a, b)
	case "**":
		return math.Pow(a, b), nil
	default:
		return nil, typeErrorf(pos, "unsupported operand type(s) for %s: 'float' and 'float'", op)
	}
	if ft != FaultNone {
		return nil, ft.Err(pos)
	}
	return v, nil
}

func (th *Thread) unaryOp(op string, x Value, pos minipy.Position) (Value, error) {
	switch op {
	case "not":
		return !Truthy(x), nil
	case "-":
		if n, ok := x.(int64); ok {
			return -n, nil
		}
		if f, ok := x.(float64); ok {
			return -f, nil
		}
		if b, ok := x.(bool); ok {
			if b {
				return int64(-1), nil
			}
			return int64(0), nil
		}
	case "+":
		if n, ok := asInt(x); ok {
			if _, isB := x.(bool); isB {
				return n, nil
			}
			return x, nil
		}
		if _, ok := x.(float64); ok {
			return x, nil
		}
	case "~":
		if n, ok := asInt(x); ok {
			return ^n, nil
		}
	}
	return nil, typeErrorf(pos, "bad operand type for unary %s: '%s'", op, TypeName(x))
}

func (th *Thread) compareOp(op string, l, r Value, pos minipy.Position) (bool, error) {
	switch op {
	case "==":
		return valueEqual(l, r), nil
	case "!=":
		return !valueEqual(l, r), nil
	case "is":
		return valueIs(l, r), nil
	case "is not":
		return !valueIs(l, r), nil
	case "in":
		return th.contains(r, l, pos)
	case "not in":
		ok, err := th.contains(r, l, pos)
		return !ok, err
	}
	// Ordering comparisons.
	lf, lok := asFloat(l)
	rf, rok := asFloat(r)
	if lok && rok {
		switch op {
		case "<":
			return lf < rf, nil
		case "<=":
			return lf <= rf, nil
		case ">":
			return lf > rf, nil
		case ">=":
			return lf >= rf, nil
		}
	}
	if ls, ok := l.(string); ok {
		if rs, ok := r.(string); ok {
			switch op {
			case "<":
				return ls < rs, nil
			case "<=":
				return ls <= rs, nil
			case ">":
				return ls > rs, nil
			case ">=":
				return ls >= rs, nil
			}
		}
	}
	if lt, ok := l.(*Tuple); ok {
		if rtup, ok := r.(*Tuple); ok {
			c, err := tupleCompare(lt, rtup)
			if err != nil {
				return false, err
			}
			switch op {
			case "<":
				return c < 0, nil
			case "<=":
				return c <= 0, nil
			case ">":
				return c > 0, nil
			case ">=":
				return c >= 0, nil
			}
		}
	}
	return false, typeErrorf(pos, "'%s' not supported between instances of '%s' and '%s'",
		op, TypeName(l), TypeName(r))
}

func tupleCompare(a, b *Tuple) (int, error) {
	n := len(a.Elts)
	if len(b.Elts) < n {
		n = len(b.Elts)
	}
	for i := 0; i < n; i++ {
		if valueEqual(a.Elts[i], b.Elts[i]) {
			continue
		}
		less, err := valueLess(a.Elts[i], b.Elts[i])
		if err != nil {
			return 0, err
		}
		if less {
			return -1, nil
		}
		return 1, nil
	}
	switch {
	case len(a.Elts) < len(b.Elts):
		return -1, nil
	case len(a.Elts) > len(b.Elts):
		return 1, nil
	}
	return 0, nil
}

// valueLess is the universal ordering used by sort and min/max.
func valueLess(a, b Value) (bool, error) {
	af, aok := asFloat(a)
	bf, bok := asFloat(b)
	if aok && bok {
		return af < bf, nil
	}
	if as, ok := a.(string); ok {
		if bs, ok := b.(string); ok {
			return as < bs, nil
		}
	}
	if at, ok := a.(*Tuple); ok {
		if bt, ok := b.(*Tuple); ok {
			c, err := tupleCompare(at, bt)
			return c < 0, err
		}
	}
	return false, &PyError{Type: "TypeError",
		Msg: "'<' not supported between instances of '" + TypeName(a) + "' and '" + TypeName(b) + "'"}
}

// valueEqual implements Python ==.
func valueEqual(l, r Value) bool {
	lf, lok := asFloat(l)
	rf, rok := asFloat(r)
	if lok && rok {
		return lf == rf
	}
	switch a := l.(type) {
	case nil:
		return r == nil
	case string:
		b, ok := r.(string)
		return ok && a == b
	case *Tuple:
		b, ok := r.(*Tuple)
		if !ok || len(a.Elts) != len(b.Elts) {
			return false
		}
		for i := range a.Elts {
			if !valueEqual(a.Elts[i], b.Elts[i]) {
				return false
			}
		}
		return true
	case *List:
		b, ok := r.(*List)
		if !ok || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !valueEqual(a.Get(i), b.Get(i)) {
				return false
			}
		}
		return true
	case *Dict:
		b, ok := r.(*Dict)
		if !ok || a.Len() != b.Len() {
			return false
		}
		for _, kv := range a.Items() {
			v, found, err := b.Get(kv[0])
			if err != nil || !found || !valueEqual(kv[1], v) {
				return false
			}
		}
		return true
	case *Set:
		b, ok := r.(*Set)
		if !ok || a.Len() != b.Len() {
			return false
		}
		for _, v := range a.Values() {
			has, err := b.Has(v)
			if err != nil || !has {
				return false
			}
		}
		return true
	case *ExcValue:
		b, ok := r.(*ExcValue)
		return ok && a.Type == b.Type && valueEqual(a.Msg, b.Msg)
	}
	return l == r && l != nil
}

func valueIs(l, r Value) bool {
	if l == nil || r == nil {
		return l == nil && r == nil
	}
	switch l.(type) {
	case bool, int64, float64, string:
		// CPython small-value identity is an implementation detail;
		// scalar "is" compares values here.
		return valueEqual(l, r) && TypeName(l) == TypeName(r)
	}
	return l == r
}

func (th *Thread) contains(container, item Value, pos minipy.Position) (bool, error) {
	switch c := container.(type) {
	case *List:
		for i := 0; i < c.Len(); i++ {
			if valueEqual(c.Get(i), item) {
				return true, nil
			}
		}
		return false, nil
	case *Tuple:
		for _, v := range c.Elts {
			if valueEqual(v, item) {
				return true, nil
			}
		}
		return false, nil
	case *Dict:
		_, ok, err := c.Get(item)
		return ok, err
	case *Set:
		return c.Has(item)
	case string:
		s, ok := item.(string)
		if !ok {
			return false, typeErrorf(pos, "'in <string>' requires string as left operand")
		}
		return strings.Contains(c, s), nil
	case *Range:
		n, ok := asInt(item)
		if !ok {
			return false, nil
		}
		if c.Step > 0 {
			return n >= c.Start && n < c.Stop && (n-c.Start)%c.Step == 0, nil
		}
		if c.Step < 0 {
			return n <= c.Start && n > c.Stop && (c.Start-n)%(-c.Step) == 0, nil
		}
		return false, nil
	}
	return false, typeErrorf(pos, "argument of type '%s' is not iterable", TypeName(container))
}

// pyFormat supports the small %-formatting subset benchmarks use.
func pyFormat(format string, arg Value) string {
	args := []Value{arg}
	if t, ok := arg.(*Tuple); ok {
		args = t.Elts
	}
	var b strings.Builder
	ai := 0
	for i := 0; i < len(format); i++ {
		if format[i] != '%' || i+1 >= len(format) {
			b.WriteByte(format[i])
			continue
		}
		i++
		switch format[i] {
		case '%':
			b.WriteByte('%')
		case 's', 'd', 'f', 'g':
			if ai < len(args) {
				b.WriteString(Str(args[ai]))
				ai++
			}
		default:
			b.WriteByte('%')
			b.WriteByte(format[i])
		}
	}
	return b.String()
}
