package compile

import (
	"github.com/omp4go/omp4go/internal/interp"
	"github.com/omp4go/omp4go/internal/minipy"
)

// compileExpr produces the boxed evaluation of an expression. In
// typed mode, float- and int-typed subexpressions are computed
// unboxed and boxed only at the boundary.
func (c *compiler) compileExpr(sc *scopeCtx, e minipy.Expr) (exprFn, error) {
	if c.opts.Typed {
		vt := exprType(e, sc.types)
		if n, ok := e.(*minipy.Name); ok && isNumeric(vt) {
			// A typed name held in a cell is already the boxed value wanted.
			if k := sc.resolve(n.ID).kind; k == refCell || k == refFree {
				vt = tBoxed
			}
		}
		switch vt {
		case tFloat:
			return boxNum(c, sc, floatKind, e)
		case tInt:
			return boxNum(c, sc, intKind, e)
		}
	}
	return c.compileExprBoxed(sc, e)
}

// boxNum computes e unboxed on the path d and boxes the result.
func boxNum[T int64 | float64](c *compiler, sc *scopeCtx, d *numKind[T], e minipy.Expr) (exprFn, error) {
	f, err := compileNum(c, sc, d, e)
	if err != nil {
		return nil, err
	}
	return func(fr *Frame) (interp.Value, error) {
		v, err := f(fr)
		if err != nil {
			return nil, err
		}
		return v, nil
	}, nil
}

func (c *compiler) compileExprBoxed(sc *scopeCtx, e minipy.Expr) (exprFn, error) {
	switch t := e.(type) {
	case *minipy.IntLit:
		v := t.V
		return func(fr *Frame) (interp.Value, error) { return v, nil }, nil
	case *minipy.FloatLit:
		v := t.V
		return func(fr *Frame) (interp.Value, error) { return v, nil }, nil
	case *minipy.StrLit:
		v := t.V
		return func(fr *Frame) (interp.Value, error) { return v, nil }, nil
	case *minipy.BoolLit:
		v := t.V
		return func(fr *Frame) (interp.Value, error) { return v, nil }, nil
	case *minipy.NoneLit:
		return func(fr *Frame) (interp.Value, error) { return nil, nil }, nil
	case *minipy.Name:
		return sc.load(t.ID, t.NodePos()), nil
	case *minipy.BinOp:
		lf, err := c.compileExpr(sc, t.L)
		if err != nil {
			return nil, err
		}
		rf, err := c.compileExpr(sc, t.R)
		if err != nil {
			return nil, err
		}
		op, pos := t.Op, t.NodePos()
		return func(fr *Frame) (interp.Value, error) {
			l, err := lf(fr)
			if err != nil {
				return nil, err
			}
			r, err := rf(fr)
			if err != nil {
				return nil, err
			}
			return fr.th.BinaryOp(op, l, r, pos)
		}, nil
	case *minipy.BoolOp:
		subs := make([]exprFn, len(t.Values))
		for i, v := range t.Values {
			sub, err := c.compileExpr(sc, v)
			if err != nil {
				return nil, err
			}
			subs[i] = sub
		}
		and := t.Op == "and"
		return func(fr *Frame) (interp.Value, error) {
			var v interp.Value
			for _, sub := range subs {
				var err error
				v, err = sub(fr)
				if err != nil {
					return nil, err
				}
				if interp.Truthy(v) != and {
					return v, nil
				}
			}
			return v, nil
		}, nil
	case *minipy.UnaryOp:
		xf, err := c.compileExpr(sc, t.X)
		if err != nil {
			return nil, err
		}
		op, pos := t.Op, t.NodePos()
		if op == "not" {
			return func(fr *Frame) (interp.Value, error) {
				x, err := xf(fr)
				if err != nil {
					return nil, err
				}
				return !interp.Truthy(x), nil
			}, nil
		}
		return func(fr *Frame) (interp.Value, error) {
			x, err := xf(fr)
			if err != nil {
				return nil, err
			}
			return fr.th.UnaryOpValue(op, x, pos)
		}, nil
	case *minipy.Compare:
		lf, err := c.compileExpr(sc, t.L)
		if err != nil {
			return nil, err
		}
		rights := make([]exprFn, len(t.Rights))
		for i, r := range t.Rights {
			rf, err := c.compileExpr(sc, r)
			if err != nil {
				return nil, err
			}
			rights[i] = rf
		}
		ops, pos := t.Ops, t.NodePos()
		return func(fr *Frame) (interp.Value, error) {
			l, err := lf(fr)
			if err != nil {
				return nil, err
			}
			for i, op := range ops {
				r, err := rights[i](fr)
				if err != nil {
					return nil, err
				}
				ok, err := fr.th.CompareValues(op, l, r, pos)
				if err != nil {
					return nil, err
				}
				if !ok {
					return false, nil
				}
				l = r
			}
			return true, nil
		}, nil
	case *minipy.Call:
		return c.compileCall(sc, t)
	case *minipy.Attribute:
		xf, err := c.compileExpr(sc, t.X)
		if err != nil {
			return nil, err
		}
		name, pos := t.Name, t.NodePos()
		return func(fr *Frame) (interp.Value, error) {
			x, err := xf(fr)
			if err != nil {
				return nil, err
			}
			return fr.th.GetAttr(x, name, pos)
		}, nil
	case *minipy.Index:
		xf, err := c.compileExpr(sc, t.X)
		if err != nil {
			return nil, err
		}
		inf, err := c.compileExpr(sc, t.I)
		if err != nil {
			return nil, err
		}
		pos := t.NodePos()
		return func(fr *Frame) (interp.Value, error) {
			x, err := xf(fr)
			if err != nil {
				return nil, err
			}
			idx, err := inf(fr)
			if err != nil {
				return nil, err
			}
			return fr.th.GetItem(x, idx, pos)
		}, nil
	case *minipy.SliceExpr:
		return c.compileSlice(sc, t)
	case *minipy.ListLit:
		elts, err := c.compileExprs(sc, t.Elts)
		if err != nil {
			return nil, err
		}
		return func(fr *Frame) (interp.Value, error) {
			vals := make([]interp.Value, len(elts))
			for i, ef := range elts {
				v, err := ef(fr)
				if err != nil {
					return nil, err
				}
				vals[i] = v
			}
			fr.th.Account()
			return interp.NewList(vals), nil
		}, nil
	case *minipy.TupleLit:
		elts, err := c.compileExprs(sc, t.Elts)
		if err != nil {
			return nil, err
		}
		return func(fr *Frame) (interp.Value, error) {
			vals := make([]interp.Value, len(elts))
			for i, ef := range elts {
				v, err := ef(fr)
				if err != nil {
					return nil, err
				}
				vals[i] = v
			}
			return &interp.Tuple{Elts: vals}, nil
		}, nil
	case *minipy.DictLit:
		keys, err := c.compileExprs(sc, t.Keys)
		if err != nil {
			return nil, err
		}
		vals, err := c.compileExprs(sc, t.Vals)
		if err != nil {
			return nil, err
		}
		return func(fr *Frame) (interp.Value, error) {
			d := interp.NewDict()
			for i := range keys {
				k, err := keys[i](fr)
				if err != nil {
					return nil, err
				}
				v, err := vals[i](fr)
				if err != nil {
					return nil, err
				}
				if err := d.Set(k, v); err != nil {
					return nil, err
				}
			}
			return d, nil
		}, nil
	case *minipy.SetLit:
		elts, err := c.compileExprs(sc, t.Elts)
		if err != nil {
			return nil, err
		}
		return func(fr *Frame) (interp.Value, error) {
			s := interp.NewSet()
			for _, ef := range elts {
				v, err := ef(fr)
				if err != nil {
					return nil, err
				}
				if err := s.Add(v); err != nil {
					return nil, err
				}
			}
			return s, nil
		}, nil
	case *minipy.IfExp:
		condf, err := c.compileExpr(sc, t.Cond)
		if err != nil {
			return nil, err
		}
		thenf, err := c.compileExpr(sc, t.Then)
		if err != nil {
			return nil, err
		}
		elsef, err := c.compileExpr(sc, t.Else)
		if err != nil {
			return nil, err
		}
		return func(fr *Frame) (interp.Value, error) {
			cond, err := condf(fr)
			if err != nil {
				return nil, err
			}
			if interp.Truthy(cond) {
				return thenf(fr)
			}
			return elsef(fr)
		}, nil
	case *minipy.Lambda:
		fd := &minipy.FuncDef{Name: "<lambda>", Params: t.Params, Body: []minipy.Stmt{&minipy.Return{Value: t.Body}}, Scope: t.Scope}
		fd.P = t.NodePos()
		return c.compileClosure(sc, fd)
	}
	return nil, interp.NewPyError("TypeError", "unsupported expression in compiled code", e.NodePos())
}

func (c *compiler) compileExprs(sc *scopeCtx, es []minipy.Expr) ([]exprFn, error) {
	out := make([]exprFn, len(es))
	for i, e := range es {
		f, err := c.compileExpr(sc, e)
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

func (c *compiler) compileCall(sc *scopeCtx, t *minipy.Call) (exprFn, error) {
	fnf, err := c.compileExpr(sc, t.Fn)
	if err != nil {
		return nil, err
	}
	args, err := c.compileExprs(sc, t.Args)
	if err != nil {
		return nil, err
	}
	pos := t.NodePos()
	if len(t.Keywords) == 0 {
		return func(fr *Frame) (interp.Value, error) {
			fn, err := fnf(fr)
			if err != nil {
				return nil, err
			}
			vals := make([]interp.Value, len(args))
			for i, af := range args {
				v, err := af(fr)
				if err != nil {
					return nil, err
				}
				vals[i] = v
			}
			return fr.th.Call(fn, vals, pos)
		}, nil
	}
	kwNames := make([]string, len(t.Keywords))
	kwFns := make([]exprFn, len(t.Keywords))
	for i, kw := range t.Keywords {
		kwNames[i] = kw.Name
		f, err := c.compileExpr(sc, kw.Value)
		if err != nil {
			return nil, err
		}
		kwFns[i] = f
	}
	return func(fr *Frame) (interp.Value, error) {
		fn, err := fnf(fr)
		if err != nil {
			return nil, err
		}
		vals := make([]interp.Value, len(args))
		for i, af := range args {
			v, err := af(fr)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		kwargs := make(map[string]interp.Value, len(kwFns))
		for i, kf := range kwFns {
			v, err := kf(fr)
			if err != nil {
				return nil, err
			}
			kwargs[kwNames[i]] = v
		}
		return fr.th.CallKw(fn, vals, kwargs, pos)
	}, nil
}

func (c *compiler) compileSlice(sc *scopeCtx, t *minipy.SliceExpr) (exprFn, error) {
	// Slices are off the hot paths; delegate to the interpreter's
	// slice semantics by rebuilding the boxed values.
	xf, err := c.compileExpr(sc, t.X)
	if err != nil {
		return nil, err
	}
	part := func(e minipy.Expr) (exprFn, error) {
		if e == nil {
			return nil, nil
		}
		return c.compileExpr(sc, e)
	}
	lof, err := part(t.Lo)
	if err != nil {
		return nil, err
	}
	hif, err := part(t.Hi)
	if err != nil {
		return nil, err
	}
	stepf, err := part(t.Step)
	if err != nil {
		return nil, err
	}
	pos := t.NodePos()
	return func(fr *Frame) (interp.Value, error) {
		x, err := xf(fr)
		if err != nil {
			return nil, err
		}
		var parts [3]int64
		var set [3]bool
		for i, f := range []exprFn{lof, hif, stepf} {
			if f == nil {
				continue
			}
			v, err := f(fr)
			if err != nil {
				return nil, err
			}
			n, ok := interp.AsInt(v)
			if !ok {
				return nil, interp.NewPyError("TypeError", "slice indices must be integers", pos)
			}
			parts[i], set[i] = n, true
		}
		return interp.SliceOf(x, set[0], parts[0], set[1], parts[1], set[2], parts[2], pos)
	}, nil
}

// compileClosure compiles a nested function/lambda and returns the
// expression that creates its function value at run time.
func (c *compiler) compileClosure(sc *scopeCtx, fd *minipy.FuncDef) (exprFn, error) {
	name, params := fd.Name, fd.Params
	code, err := c.compileFunc(fd, sc)
	if err != nil {
		return nil, err
	}
	// Default expressions evaluate in the defining scope at def time.
	defFns := make([]exprFn, len(params))
	for i, p := range params {
		if p.Default == nil {
			continue
		}
		df, err := c.compileExpr(sc, p.Default)
		if err != nil {
			return nil, err
		}
		defFns[i] = df
	}
	paramsCopy := append([]minipy.Param(nil), params...)
	return func(fr *Frame) (interp.Value, error) {
		defaults := make([]interp.Value, len(defFns))
		for i, df := range defFns {
			if df == nil {
				continue
			}
			v, err := df(fr)
			if err != nil {
				return nil, err
			}
			defaults[i] = v
		}
		fn := interp.MakeCompiledFunction(name, paramsCopy, defaults, nil)
		fn.Compiled = code.entry(fr, fn)
		return fn, nil
	}, nil
}
