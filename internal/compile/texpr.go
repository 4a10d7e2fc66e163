package compile

import (
	"math"

	"github.com/omp4go/omp4go/internal/interp"
	"github.com/omp4go/omp4go/internal/minipy"
)

// This file is the CompiledDT back end: expressions whose inferred
// type is int or float compile to unboxed closure chains, the
// counterpart of the machine code Cython emits once variables carry
// int/float annotations (§III-F, §IV).

var nativeMath1 = map[string]func(float64) float64{
	"sqrt": math.Sqrt, "sin": math.Sin, "cos": math.Cos, "tan": math.Tan,
	"exp": math.Exp, "log": math.Log, "log2": math.Log2, "log10": math.Log10,
	"fabs": math.Abs, "atan": math.Atan, "asin": math.Asin, "acos": math.Acos,
}

var nativeMath2 = map[string]func(float64, float64) float64{
	"pow": math.Pow, "atan2": math.Atan2, "fmod": math.Mod,
}

// isArith reports whether op is numeric-only in a float context.
func isArith(op string) bool {
	switch op {
	case "+", "-", "*", "/", "//", "%", "**":
		return true
	}
	return false
}

// compileFloat compiles e into an unboxed float computation; any
// subexpression it cannot specialize falls back to the boxed path
// with a coercion at the boundary.
func (c *compiler) compileFloat(sc *scopeCtx, e minipy.Expr) (floatFn, error) {
	switch t := e.(type) {
	case *minipy.FloatLit:
		v := t.V
		return func(fr *Frame) (float64, error) { return v, nil }, nil
	case *minipy.IntLit:
		v := float64(t.V)
		return func(fr *Frame) (float64, error) { return v, nil }, nil
	case *minipy.Name:
		ref := sc.resolve(t.ID)
		switch ref.kind {
		case refFSlot:
			idx := ref.idx
			return func(fr *Frame) (float64, error) { return fr.f[idx], nil }, nil
		case refISlot:
			idx := ref.idx
			return func(fr *Frame) (float64, error) { return float64(fr.i[idx]), nil }, nil
		}
	case *minipy.UnaryOp:
		if t.Op == "-" || t.Op == "+" {
			xf, err := c.compileFloat(sc, t.X)
			if err != nil {
				return nil, err
			}
			if t.Op == "+" {
				return xf, nil
			}
			return func(fr *Frame) (float64, error) {
				x, err := xf(fr)
				return -x, err
			}, nil
		}
	case *minipy.BinOp:
		// The context demands a float, so both operands compile on
		// the float path regardless of their inferred types: operands
		// the specializer cannot prove numeric fall back to boxed
		// evaluation plus a coercion inside their own compileFloat.
		// This is the annotation-trusting semantics of Cython's cdef:
		// a list element flowing into float arithmetic had better be
		// a number. It is what lets a[i]*x[j] reach the unboxed
		// FloatAt fast path.
		if isArith(t.Op) {
			lf, err := c.compileFloat(sc, t.L)
			if err != nil {
				return nil, err
			}
			rf, err := c.compileFloat(sc, t.R)
			if err != nil {
				return nil, err
			}
			pos := t.NodePos()
			switch t.Op {
			case "+":
				return func(fr *Frame) (float64, error) {
					l, err := lf(fr)
					if err != nil {
						return 0, err
					}
					r, err := rf(fr)
					return l + r, err
				}, nil
			case "-":
				return func(fr *Frame) (float64, error) {
					l, err := lf(fr)
					if err != nil {
						return 0, err
					}
					r, err := rf(fr)
					return l - r, err
				}, nil
			case "*":
				return func(fr *Frame) (float64, error) {
					l, err := lf(fr)
					if err != nil {
						return 0, err
					}
					r, err := rf(fr)
					return l * r, err
				}, nil
			case "/":
				return func(fr *Frame) (float64, error) {
					l, err := lf(fr)
					if err != nil {
						return 0, err
					}
					r, err := rf(fr)
					if err != nil {
						return 0, err
					}
					if r == 0 {
						return 0, interp.NewPyError("ZeroDivisionError", "float division by zero", pos)
					}
					return l / r, nil
				}, nil
			case "//":
				return func(fr *Frame) (float64, error) {
					l, err := lf(fr)
					if err != nil {
						return 0, err
					}
					r, err := rf(fr)
					if err != nil {
						return 0, err
					}
					if r == 0 {
						return 0, interp.NewPyError("ZeroDivisionError", "float floor division by zero", pos)
					}
					return math.Floor(l / r), nil
				}, nil
			case "%":
				return func(fr *Frame) (float64, error) {
					l, err := lf(fr)
					if err != nil {
						return 0, err
					}
					r, err := rf(fr)
					if err != nil {
						return 0, err
					}
					if r == 0 {
						return 0, interp.NewPyError("ZeroDivisionError", "float modulo", pos)
					}
					m := math.Mod(l, r)
					if m != 0 && ((m < 0) != (r < 0)) {
						m += r
					}
					return m, nil
				}, nil
			case "**":
				return func(fr *Frame) (float64, error) {
					l, err := lf(fr)
					if err != nil {
						return 0, err
					}
					r, err := rf(fr)
					if err != nil {
						return 0, err
					}
					return math.Pow(l, r), nil
				}, nil
			}
		}
	case *minipy.Call:
		// math.<fn>(x) with a guard that the callee really is the
		// math module (compiled code binds it early, like Cython).
		if attr, ok := t.Fn.(*minipy.Attribute); ok {
			if base, ok := attr.X.(*minipy.Name); ok {
				if f1, ok := nativeMath1[attr.Name]; ok && len(t.Args) == 1 {
					loadMod := sc.load(base.ID, t.NodePos())
					xf, err := c.compileFloat(sc, t.Args[0])
					if err != nil {
						return nil, err
					}
					fname := attr.Name
					pos := t.NodePos()
					return func(fr *Frame) (float64, error) {
						mv, err := loadMod(fr)
						if err != nil {
							return 0, err
						}
						if m, ok := mv.(*interp.Module); ok && m.Name == "math" {
							x, err := xf(fr)
							if err != nil {
								return 0, err
							}
							r := f1(x)
							if math.IsNaN(r) && !math.IsNaN(x) {
								return 0, interp.NewPyError("ValueError", "math domain error", pos)
							}
							return r, nil
						}
						return c.genericFloatCall(fr, mv, fname, xf, pos)
					}, nil
				}
				if f2, ok := nativeMath2[attr.Name]; ok && len(t.Args) == 2 {
					loadMod := sc.load(base.ID, t.NodePos())
					af, err := c.compileFloat(sc, t.Args[0])
					if err != nil {
						return nil, err
					}
					bf, err := c.compileFloat(sc, t.Args[1])
					if err != nil {
						return nil, err
					}
					pos := t.NodePos()
					fname := attr.Name
					return func(fr *Frame) (float64, error) {
						mv, err := loadMod(fr)
						if err != nil {
							return 0, err
						}
						if m, ok := mv.(*interp.Module); ok && m.Name == "math" {
							a, err := af(fr)
							if err != nil {
								return 0, err
							}
							b, err := bf(fr)
							if err != nil {
								return 0, err
							}
							return f2(a, b), nil
						}
						// Fall back via the boxed protocol.
						fn, err := fr.th.GetAttr(mv, fname, pos)
						if err != nil {
							return 0, err
						}
						a, err := af(fr)
						if err != nil {
							return 0, err
						}
						b, err := bf(fr)
						if err != nil {
							return 0, err
						}
						v, err := fr.th.Call(fn, []interp.Value{a, b}, pos)
						if err != nil {
							return 0, err
						}
						return coerceFloat(v, pos)
					}, nil
				}
			}
		}
		// float(x), abs/min/max handled by inference falling through
		// to the generic path below.
	case *minipy.Index:
		// Unboxed read from a float-specialized list.
		xf, err := c.compileExprBoxed(sc, t.X)
		if err != nil {
			return nil, err
		}
		idxf, err := c.compileInt(sc, t.I)
		if err != nil {
			// Non-integer index: generic fallback.
			break
		}
		pos := t.NodePos()
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
			v, err := fr.th.GetItem(xv, iv, pos)
			if err != nil {
				return 0, err
			}
			return coerceFloat(v, pos)
		}, nil
	case *minipy.IfExp:
		condf, err := c.compileCond(sc, t.Cond)
		if err != nil {
			return nil, err
		}
		thenf, err := c.compileFloat(sc, t.Then)
		if err != nil {
			return nil, err
		}
		elsef, err := c.compileFloat(sc, t.Else)
		if err != nil {
			return nil, err
		}
		return func(fr *Frame) (float64, error) {
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
	return func(fr *Frame) (float64, error) {
		v, err := ef(fr)
		if err != nil {
			return 0, err
		}
		return coerceFloat(v, pos)
	}, nil
}

func (c *compiler) genericFloatCall(fr *Frame, mod interp.Value, fname string, xf floatFn, pos minipy.Position) (float64, error) {
	fn, err := fr.th.GetAttr(mod, fname, pos)
	if err != nil {
		return 0, err
	}
	x, err := xf(fr)
	if err != nil {
		return 0, err
	}
	v, err := fr.th.Call(fn, []interp.Value{x}, pos)
	if err != nil {
		return 0, err
	}
	return coerceFloat(v, pos)
}

func coerceFloat(v interp.Value, pos minipy.Position) (float64, error) {
	if f, ok := interp.AsFloat(v); ok {
		return f, nil
	}
	return 0, interp.NewPyError("TypeError",
		"expected a number, got "+interp.TypeName(v), pos)
}

func coerceInt(v interp.Value, pos minipy.Position) (int64, error) {
	if n, ok := interp.AsInt(v); ok {
		return n, nil
	}
	return 0, interp.NewPyError("TypeError",
		"expected an int, got "+interp.TypeName(v), pos)
}

// compileInt compiles e into an unboxed int computation.
func (c *compiler) compileInt(sc *scopeCtx, e minipy.Expr) (intFn, error) {
	switch t := e.(type) {
	case *minipy.IntLit:
		v := t.V
		return func(fr *Frame) (int64, error) { return v, nil }, nil
	case *minipy.Name:
		ref := sc.resolve(t.ID)
		if ref.kind == refISlot {
			idx := ref.idx
			return func(fr *Frame) (int64, error) { return fr.i[idx], nil }, nil
		}
	case *minipy.UnaryOp:
		switch t.Op {
		case "-", "+", "~":
			xf, err := c.compileInt(sc, t.X)
			if err != nil {
				return nil, err
			}
			op := t.Op
			return func(fr *Frame) (int64, error) {
				x, err := xf(fr)
				if err != nil {
					return 0, err
				}
				switch op {
				case "-":
					return -x, nil
				case "~":
					return ^x, nil
				}
				return x, nil
			}, nil
		}
	case *minipy.BinOp:
		if exprType(t.L, sc.types) == tInt && exprType(t.R, sc.types) == tInt {
			lf, err := c.compileInt(sc, t.L)
			if err != nil {
				return nil, err
			}
			rf, err := c.compileInt(sc, t.R)
			if err != nil {
				return nil, err
			}
			pos := t.NodePos()
			switch t.Op {
			case "+":
				return func(fr *Frame) (int64, error) {
					l, err := lf(fr)
					if err != nil {
						return 0, err
					}
					r, err := rf(fr)
					return l + r, err
				}, nil
			case "-":
				return func(fr *Frame) (int64, error) {
					l, err := lf(fr)
					if err != nil {
						return 0, err
					}
					r, err := rf(fr)
					return l - r, err
				}, nil
			case "*":
				return func(fr *Frame) (int64, error) {
					l, err := lf(fr)
					if err != nil {
						return 0, err
					}
					r, err := rf(fr)
					return l * r, err
				}, nil
			case "//":
				return func(fr *Frame) (int64, error) {
					l, err := lf(fr)
					if err != nil {
						return 0, err
					}
					r, err := rf(fr)
					if err != nil {
						return 0, err
					}
					if r == 0 {
						return 0, interp.NewPyError("ZeroDivisionError",
							"integer division or modulo by zero", pos)
					}
					q := l / r
					if (l%r != 0) && ((l < 0) != (r < 0)) {
						q--
					}
					return q, nil
				}, nil
			case "%":
				return func(fr *Frame) (int64, error) {
					l, err := lf(fr)
					if err != nil {
						return 0, err
					}
					r, err := rf(fr)
					if err != nil {
						return 0, err
					}
					if r == 0 {
						return 0, interp.NewPyError("ZeroDivisionError",
							"integer division or modulo by zero", pos)
					}
					m := l % r
					if m != 0 && ((l < 0) != (r < 0)) {
						m += r
					}
					return m, nil
				}, nil
			case "&":
				return func(fr *Frame) (int64, error) {
					l, err := lf(fr)
					if err != nil {
						return 0, err
					}
					r, err := rf(fr)
					return l & r, err
				}, nil
			case "|":
				return func(fr *Frame) (int64, error) {
					l, err := lf(fr)
					if err != nil {
						return 0, err
					}
					r, err := rf(fr)
					return l | r, err
				}, nil
			case "^":
				return func(fr *Frame) (int64, error) {
					l, err := lf(fr)
					if err != nil {
						return 0, err
					}
					r, err := rf(fr)
					return l ^ r, err
				}, nil
			case "<<":
				return func(fr *Frame) (int64, error) {
					l, err := lf(fr)
					if err != nil {
						return 0, err
					}
					r, err := rf(fr)
					if err != nil {
						return 0, err
					}
					if r < 0 {
						return 0, interp.NewPyError("ValueError", "negative shift count", pos)
					}
					return l << uint(r), nil
				}, nil
			case ">>":
				return func(fr *Frame) (int64, error) {
					l, err := lf(fr)
					if err != nil {
						return 0, err
					}
					r, err := rf(fr)
					if err != nil {
						return 0, err
					}
					if r < 0 {
						return 0, interp.NewPyError("ValueError", "negative shift count", pos)
					}
					return l >> uint(r), nil
				}, nil
			}
		}
	case *minipy.Call:
		if n, ok := t.Fn.(*minipy.Name); ok && n.ID == "len" && len(t.Args) == 1 {
			// len() of anything is a native int.
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
	case *minipy.Index:
		xf, err := c.compileExprBoxed(sc, t.X)
		if err != nil {
			return nil, err
		}
		idxf, err := c.compileInt(sc, t.I)
		if err != nil {
			break
		}
		pos := t.NodePos()
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
			v, err := fr.th.GetItem(xv, iv, pos)
			if err != nil {
				return 0, err
			}
			return coerceInt(v, pos)
		}, nil
	case *minipy.IfExp:
		condf, err := c.compileCond(sc, t.Cond)
		if err != nil {
			return nil, err
		}
		thenf, err := c.compileInt(sc, t.Then)
		if err != nil {
			return nil, err
		}
		elsef, err := c.compileInt(sc, t.Else)
		if err != nil {
			return nil, err
		}
		return func(fr *Frame) (int64, error) {
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
	ef, err := c.compileExprBoxed(sc, e)
	if err != nil {
		return nil, err
	}
	pos := e.NodePos()
	return func(fr *Frame) (int64, error) {
		v, err := ef(fr)
		if err != nil {
			return 0, err
		}
		return coerceInt(v, pos)
	}, nil
}

// compileCond compiles a boolean context. Typed numeric comparisons
// specialize to native compares.
func (c *compiler) compileCond(sc *scopeCtx, e minipy.Expr) (func(fr *Frame) (bool, error), error) {
	if c.opts.Typed {
		if t, ok := e.(*minipy.Compare); ok && len(t.Ops) == 1 {
			lt := exprType(t.L, sc.types)
			rt := exprType(t.Rights[0], sc.types)
			numeric := func(vt valType) bool { return vt == tInt || vt == tFloat }
			op := t.Ops[0]
			isOrderOp := false
			switch op {
			case "==", "!=", "<", "<=", ">", ">=":
				isOrderOp = true
			}
			// int-int comparisons stay exact on the int path; a float
			// (or one provably-numeric side, annotation-trusting)
			// takes the float path.
			if isOrderOp && lt == tInt && rt == tInt {
				lf, err := c.compileInt(sc, t.L)
				if err != nil {
					return nil, err
				}
				rf, err := c.compileInt(sc, t.Rights[0])
				if err != nil {
					return nil, err
				}
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
			if isOrderOp && (numeric(lt) || numeric(rt)) {
				lf, err := c.compileFloat(sc, t.L)
				if err != nil {
					return nil, err
				}
				rf, err := c.compileFloat(sc, t.Rights[0])
				if err != nil {
					return nil, err
				}
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
		}
		if t, ok := e.(*minipy.BoolOp); ok {
			subs := make([]func(fr *Frame) (bool, error), len(t.Values))
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
	idx, slot := ref.idx, ref.kind == refFSlot || ref.kind == refISlot
	if ref.typ == tFloat {
		vf, err := c.compileFloat(sc, value)
		if err != nil {
			return nil, err
		}
		if !slot {
			return boxedStore(vf, ref), nil
		}
		return func(fr *Frame) (flow, error) {
			v, err := vf(fr)
			if err != nil {
				return flowNext, err
			}
			fr.f[idx] = v
			return flowNext, nil
		}, nil
	}
	vf, err := c.compileInt(sc, value)
	if err != nil {
		return nil, err
	}
	if !slot {
		return boxedStore(vf, ref), nil
	}
	return func(fr *Frame) (flow, error) {
		v, err := vf(fr)
		if err != nil {
			return flowNext, err
		}
		fr.i[idx] = v
		return flowNext, nil
	}, nil
}

// boxedStore stores the unboxed result of vf into the cell ref names.
func boxedStore[T int64 | float64](vf func(fr *Frame) (T, error), ref varRef) stmtFn {
	return func(fr *Frame) (flow, error) {
		v, err := vf(fr)
		if err != nil {
			return flowNext, err
		}
		ref.cellIn(fr).SetValue(v)
		return flowNext, nil
	}
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
