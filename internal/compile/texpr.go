package compile

import (
	"math"

	"github.com/omp4go/omp4go/internal/interp"
	"github.com/omp4go/omp4go/internal/minipy"
)

// This file is the CompiledDT back end: expressions whose inferred
// type is int or float compile to unboxed closure chains, the
// counterpart of the machine code Cython emits once variables carry
// int/float annotations (§III-F, §IV). There is one compiler for the
// two unboxed paths, compileNum, instantiated per kind; what differs
// between an int and a float context is written down once, in the
// kind's descriptor.

var nativeMath1 = map[string]func(float64) float64{
	"sqrt": math.Sqrt, "sin": math.Sin, "cos": math.Cos, "tan": math.Tan,
	"exp": math.Exp, "log": math.Log, "log2": math.Log2, "log10": math.Log10,
	"fabs": math.Abs, "atan": math.Atan, "asin": math.Asin, "acos": math.Acos,
}

// nativeMath2 names the binF entry behind a two-argument math
// function.
var nativeMath2 = map[string]string{"pow": "**", "atan2": "atan2", "fmod": "fmod"}

// isArith reports whether op is numeric-only in a float context.
func isArith(op string) bool {
	switch op {
	case "+", "-", "*", "/", "//", "%", "**":
		return true
	}
	return false
}

// numKind describes one of the two unboxed paths to compileNum.
type numKind[T int64 | float64] struct {
	// want is what a boxed value that does not unbox is told it should
	// have been.
	want  string
	unbox func(v interp.Value) (T, bool)
	// load reads a name's unboxed slot; nil when the path cannot (the
	// float path converts an int slot, the int path reads only its own).
	load func(ref varRef) numFn[T]
	// store is "slot idx = vf()" as a statement.
	store func(idx int, vf numFn[T]) stmtFn
	// index is the subscript xf()[idxf()]: an element of a list
	// specialized to the kind is read unboxed (FloatAt / IntAt, called
	// directly so that they inline), anything else through the object
	// protocol and a coercion (getItem).
	index func(xf exprFn, idxf intFn, pos minipy.Position) numFn[T]
	// bin are the path's binary operators beyond + - *, which are inline
	// (as is the float path's "/", though bin has it too, for the IR).
	// A float context compiles both operands of an operator as floats
	// whatever their inferred types: operands the specializer cannot
	// prove numeric fall back to boxed evaluation plus a coercion inside
	// their own compileNum. This is the annotation-trusting semantics of
	// Cython's cdef — a list element flowing into float arithmetic had
	// better be a number — and what lets a[i]*x[j] reach the unboxed
	// FloatAt fast path. The int path (isInt) is exact: both operands
	// must be inferred int, "/" and "**" are not in its table because
	// their results are not ints, and a float literal is not its own.
	bin   []numBin[T]
	isInt bool
	// inv is unary "~", for the path that has it.
	inv func(x T) T
	// call compiles the path's intrinsic calls (math.* on floats, len on
	// ints); a nil result means t is not one.
	call func(c *compiler, sc *scopeCtx, t *minipy.Call) (numFn[T], error)
}

var (
	floatKind = new(numKind[float64])
	intKind   = new(numKind[int64])
)

// The descriptors are filled in here and not in their declarations
// because their intrinsics compile subexpressions, which refers back to
// the descriptors.
func init() {
	*floatKind = numKind[float64]{
		want:  "a number",
		unbox: interp.AsFloat,
		load: func(ref varRef) floatFn {
			idx := ref.idx
			switch ref.kind {
			case refFSlot:
				return func(fr *Frame) (float64, error) { return fr.f[idx], nil }
			case refISlot:
				return func(fr *Frame) (float64, error) { return float64(fr.i[idx]), nil }
			}
			return nil
		},
		store: func(idx int, vf floatFn) stmtFn {
			return func(fr *Frame) (flow, error) {
				v, err := vf(fr)
				if err != nil {
					return flowNext, err
				}
				fr.f[idx] = v
				return flowNext, nil
			}
		},
		index: func(xf exprFn, idxf intFn, pos minipy.Position) floatFn {
			return func(fr *Frame) (float64, error) {
				xv, err := xf(fr)
				if err != nil {
					return 0, err
				}
				iv, err := idxf(fr)
				if err != nil {
					return 0, err
				}
				if l, ok := xv.(*interp.List); ok && iv >= 0 && iv < int64(l.Len()) {
					if f, ok := l.FloatAt(int(iv)); ok {
						return f, nil
					}
				}
				return floatKind.getItem(fr, xv, iv, pos)
			}
		},
		bin:  binF,
		call: mathCall,
	}
	*intKind = numKind[int64]{
		want:  "an int",
		unbox: interp.AsInt,
		load: func(ref varRef) intFn {
			if ref.kind != refISlot {
				return nil
			}
			idx := ref.idx
			return func(fr *Frame) (int64, error) { return fr.i[idx], nil }
		},
		store: func(idx int, vf intFn) stmtFn {
			return func(fr *Frame) (flow, error) {
				v, err := vf(fr)
				if err != nil {
					return flowNext, err
				}
				fr.i[idx] = v
				return flowNext, nil
			}
		},
		index: func(xf exprFn, idxf intFn, pos minipy.Position) intFn {
			return func(fr *Frame) (int64, error) {
				xv, err := xf(fr)
				if err != nil {
					return 0, err
				}
				iv, err := idxf(fr)
				if err != nil {
					return 0, err
				}
				if l, ok := xv.(*interp.List); ok && iv >= 0 && iv < int64(l.Len()) {
					if n, ok := l.IntAt(int(iv)); ok {
						return n, nil
					}
				}
				return intKind.getItem(fr, xv, iv, pos)
			}
		},
		bin:   binI,
		isInt: true,
		inv:   func(x int64) int64 { return ^x },
		call:  lenCall,
	}
}

func (c *compiler) compileFloat(sc *scopeCtx, e minipy.Expr) (floatFn, error) {
	return compileNum(c, sc, floatKind, e)
}

func (c *compiler) compileInt(sc *scopeCtx, e minipy.Expr) (intFn, error) {
	return compileNum(c, sc, intKind, e)
}

// compileNum compiles e into an unboxed computation of kind d; any
// subexpression it cannot specialize falls back to the boxed path with
// a coercion at the boundary.
func compileNum[T int64 | float64](c *compiler, sc *scopeCtx, d *numKind[T], e minipy.Expr) (numFn[T], error) {
	switch t := e.(type) {
	case *minipy.IntLit:
		v := T(t.V)
		return func(fr *Frame) (T, error) { return v, nil }, nil
	case *minipy.FloatLit:
		if !d.isInt {
			v := T(t.V)
			return func(fr *Frame) (T, error) { return v, nil }, nil
		}
	case *minipy.Name:
		if f := d.load(sc.resolve(t.ID)); f != nil {
			return f, nil
		}
	case *minipy.UnaryOp:
		if t.Op != "-" && t.Op != "+" && (t.Op != "~" || d.inv == nil) {
			break
		}
		xf, err := compileNum(c, sc, d, t.X)
		if err != nil || t.Op == "+" {
			return xf, err
		}
		if t.Op == "~" {
			inv := d.inv
			return func(fr *Frame) (T, error) {
				x, err := xf(fr)
				return inv(x), err
			}, nil
		}
		return func(fr *Frame) (T, error) {
			x, err := xf(fr)
			return -x, err
		}, nil
	case *minipy.BinOp:
		k := binIndex(d.bin, t.Op)
		inline := t.Op == "+" || t.Op == "-" || t.Op == "*" || t.Op == "/" && k >= 0
		if k < 0 && !inline || d.isInt && (exprType(t.L, sc.types) != tInt || exprType(t.R, sc.types) != tInt) {
			break
		}
		lf, err := compileNum(c, sc, d, t.L)
		if err != nil {
			return nil, err
		}
		rf, err := compileNum(c, sc, d, t.R)
		if err != nil {
			return nil, err
		}
		pos := t.NodePos()
		// int64 and float64 are distinct GC shapes, so these instantiate
		// to native arithmetic. Like the IR (opDivF), the closures give
		// true division, the one fallible operator numeric loops are full
		// of, its zero check inline; it exists on the float path only.
		switch t.Op {
		case "+":
			return func(fr *Frame) (T, error) {
				l, err := lf(fr)
				if err != nil {
					return 0, err
				}
				r, err := rf(fr)
				return l + r, err
			}, nil
		case "-":
			return func(fr *Frame) (T, error) {
				l, err := lf(fr)
				if err != nil {
					return 0, err
				}
				r, err := rf(fr)
				return l - r, err
			}, nil
		case "*":
			return func(fr *Frame) (T, error) {
				l, err := lf(fr)
				if err != nil {
					return 0, err
				}
				r, err := rf(fr)
				return l * r, err
			}, nil
		case "/":
			return func(fr *Frame) (T, error) {
				l, err := lf(fr)
				if err != nil {
					return 0, err
				}
				r, err := rf(fr)
				if err != nil {
					return 0, err
				}
				if r == 0 {
					return 0, interp.FaultDivF.Err(pos)
				}
				return l / r, nil
			}, nil
		}
		fn := d.bin[k].fn
		return func(fr *Frame) (T, error) {
			l, err := lf(fr)
			if err != nil {
				return 0, err
			}
			r, err := rf(fr)
			if err != nil {
				return 0, err
			}
			v, ft := fn(l, r)
			if ft != interp.FaultNone {
				return 0, ft.Err(pos)
			}
			return v, nil
		}, nil
	case *minipy.Call:
		if f, err := d.call(c, sc, t); f != nil || err != nil {
			return f, err
		}
	case *minipy.Index:
		xf, err := c.compileExprBoxed(sc, t.X)
		if err != nil {
			return nil, err
		}
		idxf, err := c.compileInt(sc, t.I)
		if err != nil {
			// Non-integer index: generic fallback.
			break
		}
		return d.index(xf, idxf, t.NodePos()), nil
	case *minipy.IfExp:
		condf, err := c.compileCond(sc, t.Cond)
		if err != nil {
			return nil, err
		}
		thenf, err := compileNum(c, sc, d, t.Then)
		if err != nil {
			return nil, err
		}
		elsef, err := compileNum(c, sc, d, t.Else)
		if err != nil {
			return nil, err
		}
		return func(fr *Frame) (T, error) {
			ok, err := condf(fr)
			if err != nil {
				return 0, err
			}
			if ok {
				return thenf(fr)
			}
			return elsef(fr)
		}, nil
	}
	// Generic fallback with coercion.
	ef, err := c.compileExprBoxed(sc, e)
	if err != nil {
		return nil, err
	}
	pos := e.NodePos()
	return func(fr *Frame) (T, error) {
		v, err := ef(fr)
		if err != nil {
			return 0, err
		}
		if x, ok := v.(T); ok {
			return x, nil // a typed cell, mostly: no call at all
		}
		return d.coerce(v, pos)
	}, nil
}

// getItem is the subscript through the object protocol.
func (d *numKind[T]) getItem(fr *Frame, xv interp.Value, iv int64, pos minipy.Position) (T, error) {
	v, err := fr.th.GetItem(xv, iv, pos)
	if err != nil {
		return 0, err
	}
	return d.coerce(v, pos)
}

// coerce unboxes a value the boxed path produced for this one.
func (d *numKind[T]) coerce(v interp.Value, pos minipy.Position) (T, error) {
	if x, ok := d.unbox(v); ok {
		return x, nil
	}
	return 0, interp.NewPyError("TypeError", "expected "+d.want+", got "+interp.TypeName(v), pos)
}

// mathCall compiles math.<fn>(x[, y]) with a guard that the callee
// really is the math module (compiled code binds it early, like
// Cython); under any other binding of the name the call goes through
// the boxed protocol.
func mathCall(c *compiler, sc *scopeCtx, t *minipy.Call) (floatFn, error) {
	attr, _ := t.Fn.(*minipy.Attribute)
	if attr == nil {
		return nil, nil
	}
	base, _ := attr.X.(*minipy.Name)
	f1 := nativeMath1[attr.Name]
	f2 := binIndex(binF, nativeMath2[attr.Name])
	if base == nil || !(f1 != nil && len(t.Args) == 1 || f2 >= 0 && len(t.Args) == 2) {
		return nil, nil
	}
	loadMod := sc.load(base.ID, t.NodePos())
	args := make([]floatFn, len(t.Args))
	for i, a := range t.Args {
		af, err := c.compileFloat(sc, a)
		if err != nil {
			return nil, err
		}
		args[i] = af
	}
	fname, pos := attr.Name, t.NodePos()
	return func(fr *Frame) (float64, error) {
		mv, err := loadMod(fr)
		if err != nil {
			return 0, err
		}
		m, ok := mv.(*interp.Module)
		if !ok || m.Name != "math" {
			return boxedMathCall(fr, mv, fname, args, pos)
		}
		x, err := args[0](fr)
		if err != nil {
			return 0, err
		}
		if len(args) == 1 {
			r := f1(x)
			if math.IsNaN(r) && !math.IsNaN(x) {
				return 0, interp.FaultDomain.Err(pos)
			}
			return r, nil
		}
		y, err := args[1](fr)
		if err != nil {
			return 0, err
		}
		r, _ := binF[f2].fn(x, y)
		return r, nil
	}, nil
}

func boxedMathCall(fr *Frame, mod interp.Value, fname string, args []floatFn, pos minipy.Position) (float64, error) {
	fn, err := fr.th.GetAttr(mod, fname, pos)
	if err != nil {
		return 0, err
	}
	vals := make([]interp.Value, len(args))
	for i, af := range args {
		x, err := af(fr)
		if err != nil {
			return 0, err
		}
		vals[i] = x
	}
	v, err := fr.th.Call(fn, vals, pos)
	if err != nil {
		return 0, err
	}
	return floatKind.coerce(v, pos)
}

// lenCall compiles len(x): len() of anything is a native int.
func lenCall(c *compiler, sc *scopeCtx, t *minipy.Call) (intFn, error) {
	if n, ok := t.Fn.(*minipy.Name); !ok || n.ID != "len" || len(t.Args) != 1 {
		return nil, nil
	}
	lenArg, err := c.compileExprBoxed(sc, t.Args[0])
	if err != nil {
		return nil, err
	}
	pos := t.NodePos()
	return func(fr *Frame) (int64, error) {
		v, err := lenArg(fr)
		if err != nil {
			return 0, err
		}
		switch x := v.(type) {
		case *interp.List:
			return int64(x.Len()), nil
		case string:
			return int64(len(x)), nil
		case *interp.Tuple:
			return int64(len(x.Elts)), nil
		case *interp.Dict:
			return int64(x.Len()), nil
		case *interp.Set:
			return int64(x.Len()), nil
		case *interp.Range:
			return x.Len(), nil
		}
		return 0, interp.NewPyError("TypeError",
			"object of type '"+interp.TypeName(v)+"' has no len()", pos)
	}, nil
}

type condFn = func(fr *Frame) (bool, error)

// compileCompare compiles a single ordering comparison on the path d.
func compileCompare[T int64 | float64](c *compiler, sc *scopeCtx, d *numKind[T], t *minipy.Compare) (condFn, error) {
	lf, err := compileNum(c, sc, d, t.L)
	if err != nil {
		return nil, err
	}
	rf, err := compileNum(c, sc, d, t.Rights[0])
	if err != nil {
		return nil, err
	}
	op := t.Ops[0]
	return func(fr *Frame) (bool, error) {
		l, err := lf(fr)
		if err != nil {
			return false, err
		}
		r, err := rf(fr)
		if err != nil {
			return false, err
		}
		switch op {
		case "==":
			return l == r, nil
		case "!=":
			return l != r, nil
		case "<":
			return l < r, nil
		case "<=":
			return l <= r, nil
		case ">":
			return l > r, nil
		default:
			return l >= r, nil
		}
	}, nil
}

// compileCond compiles a boolean context. Typed numeric comparisons
// specialize to native compares.
func (c *compiler) compileCond(sc *scopeCtx, e minipy.Expr) (condFn, error) {
	if c.opts.Typed {
		if t, ok := e.(*minipy.Compare); ok && len(t.Ops) == 1 {
			lt := exprType(t.L, sc.types)
			rt := exprType(t.Rights[0], sc.types)
			switch t.Ops[0] {
			case "==", "!=", "<", "<=", ">", ">=":
				// int-int comparisons stay exact on the int path; a float
				// (or one provably-numeric side, annotation-trusting)
				// takes the float path.
				if lt == tInt && rt == tInt {
					return compileCompare(c, sc, intKind, t)
				}
				if isNumeric(lt) || isNumeric(rt) {
					return compileCompare(c, sc, floatKind, t)
				}
			}
		}
		if t, ok := e.(*minipy.BoolOp); ok {
			subs := make([]condFn, len(t.Values))
			for i, v := range t.Values {
				sub, err := c.compileCond(sc, v)
				if err != nil {
					return nil, err
				}
				subs[i] = sub
			}
			and := t.Op == "and"
			return func(fr *Frame) (bool, error) {
				for _, sub := range subs {
					ok, err := sub(fr)
					if err != nil {
						return false, err
					}
					if ok != and {
						return ok, nil
					}
				}
				return and, nil
			}, nil
		}
		if t, ok := e.(*minipy.UnaryOp); ok && t.Op == "not" {
			sub, err := c.compileCond(sc, t.X)
			if err != nil {
				return nil, err
			}
			return func(fr *Frame) (bool, error) {
				ok, err := sub(fr)
				return !ok, err
			}, nil
		}
	}
	ef, err := c.compileExpr(sc, e)
	if err != nil {
		return nil, err
	}
	return func(fr *Frame) (bool, error) {
		v, err := ef(fr)
		if err != nil {
			return false, err
		}
		return interp.Truthy(v), nil
	}, nil
}

// storeTyped compiles "name = value" for a binding typed int or float
// (ref.typ): value is computed unboxed on that path, coerced or
// refused like any store into a typed binding, and kept in the
// binding's slot or, boxed, in the cell of a captured one.
func (c *compiler) storeTyped(sc *scopeCtx, ref varRef, value minipy.Expr) (stmtFn, error) {
	if ref.typ == tFloat {
		return storeNum(c, sc, floatKind, ref, value)
	}
	return storeNum(c, sc, intKind, ref, value)
}

func storeNum[T int64 | float64](c *compiler, sc *scopeCtx, d *numKind[T], ref varRef, value minipy.Expr) (stmtFn, error) {
	vf, err := compileNum(c, sc, d, value)
	if err != nil {
		return nil, err
	}
	if ref.kind == refFSlot || ref.kind == refISlot {
		return d.store(ref.idx, vf), nil
	}
	return func(fr *Frame) (flow, error) {
		v, err := vf(fr)
		if err != nil {
			return flowNext, err
		}
		ref.cellIn(fr).SetValue(v)
		return flowNext, nil
	}, nil
}

// compileTypedAssign handles "x = expr" and "a[i] = expr" when the
// target or value is type-specialized. ok=false means no fast path.
func (c *compiler) compileTypedAssign(sc *scopeCtx, target minipy.Expr, value minipy.Expr) (stmtFn, bool, error) {
	switch d := target.(type) {
	case *minipy.Name:
		if ref := sc.resolveStore(d.ID); isNumeric(ref.typ) {
			f, err := c.storeTyped(sc, ref, value)
			return f, true, err
		}
	case *minipy.Index:
		// a[i] = <float expr> with a float-specialized list.
		if exprType(value, sc.types) == tFloat {
			xf, err := c.compileExprBoxed(sc, d.X)
			if err != nil {
				return nil, true, err
			}
			idxf, err := c.compileInt(sc, d.I)
			if err != nil {
				return nil, false, nil
			}
			vf, err := c.compileFloat(sc, value)
			if err != nil {
				return nil, true, err
			}
			pos := d.NodePos()
			return func(fr *Frame) (flow, error) {
				xv, err := xf(fr)
				if err != nil {
					return flowNext, err
				}
				iv, err := idxf(fr)
				if err != nil {
					return flowNext, err
				}
				v, err := vf(fr)
				if err != nil {
					return flowNext, err
				}
				if l, ok := xv.(*interp.List); ok && iv >= 0 && iv < int64(l.Len()) {
					if l.SetFloatAt(int(iv), v) {
						return flowNext, nil
					}
				}
				return flowNext, fr.th.SetItem(xv, iv, v, pos)
			}, true, nil
		}
	}
	return nil, false, nil
}

// compileTypedAugAssign handles "x op= expr" on typed slots.
func (c *compiler) compileTypedAugAssign(sc *scopeCtx, t *minipy.AugAssign) (stmtFn, bool, error) {
	n, ok := t.Target.(*minipy.Name)
	if !ok {
		// a[i] op= v expands to a typed read-modify-write when both
		// paths specialize; reuse the assign fast path via expansion.
		if idx, ok := t.Target.(*minipy.Index); ok && exprType(t.Value, sc.types) != tBoxed {
			expanded := &minipy.BinOp{Op: t.Op, L: idx, R: t.Value}
			expanded.P = t.NodePos() // a fault in the operator is the statement's
			return c.compileTypedAssign(sc, t.Target, expanded)
		}
		return nil, false, nil
	}
	ref := sc.resolveStore(n.ID)
	rhs := &minipy.BinOp{Op: t.Op, L: n, R: t.Value}
	rhs.P = t.NodePos()
	// int //=, %= etc. stay int; += float would have inferred the
	// variable float instead.
	if !isNumeric(ref.typ) || ref.typ == tInt && exprType(rhs, sc.types) != tInt {
		return nil, false, nil
	}
	f, err := c.storeTyped(sc, ref, rhs)
	return f, true, err
}
