package compile

import (
	"errors"
	"sync"

	"github.com/omp4go/omp4go/internal/interp"
	"github.com/omp4go/omp4go/internal/minipy"
)

// compileFunc compiles one function body into a funcCode.
func (c *compiler) compileFunc(fd *minipy.FuncDef, parent *scopeCtx) (*funcCode, error) {
	sc := c.newScope(fd, parent)
	params := fd.Params
	bodyFn, err := c.compileStmts(sc, fd.Body)
	if err != nil {
		return nil, err
	}
	code := &funcCode{
		name:   fd.Name,
		pos:    fd.NodePos(),
		params: append([]minipy.Param(nil), params...),
		nSlots: sc.nSlots,
		body:   bodyFn,
	}
	code.nCells = len(sc.cellOf)
	code.nF = len(sc.fOf) + int(sc.xF)
	code.nI = len(sc.iOf) + int(sc.xI)
	code.captures = sc.captures
	code.paramBind = make([]varRef, len(params))
	for i, p := range params {
		code.paramBind[i] = sc.resolve(p.Name)
	}
	return code, nil
}

func (c *compiler) compileStmts(sc *scopeCtx, body []minipy.Stmt) (stmtFn, error) {
	fns := make([]stmtFn, 0, len(body))
	for k := 0; k < len(body); k++ {
		// Transform-lowered worksharing loops with a compile-time
		// static schedule compile to a runtime-aware kernel replacing
		// the bounds/init/while prefix (kernel.go); anything that
		// doesn't match falls through to statement-at-a-time
		// compilation of the interp-bridge lowering.
		if c.kernels {
			kf, consumed, err := c.tryCompileKernel(sc, body, k)
			if err != nil {
				return nil, err
			}
			if kf != nil {
				fns = append(fns, kf)
				k += consumed - 1
				continue
			}
		}
		f, err := c.compileStmt(sc, body[k])
		if err != nil {
			return nil, err
		}
		fns = append(fns, f)
	}
	if len(fns) == 1 {
		return fns[0], nil
	}
	return func(fr *Frame) (flow, error) {
		for _, f := range fns {
			fl, err := f(fr)
			if err != nil || fl != flowNext {
				return fl, err
			}
		}
		return flowNext, nil
	}, nil
}

func (c *compiler) compileStmt(sc *scopeCtx, s minipy.Stmt) (stmtFn, error) {
	switch t := s.(type) {
	case *minipy.ExprStmt:
		ef, err := c.compileExpr(sc, t.X)
		if err != nil {
			return nil, err
		}
		return func(fr *Frame) (flow, error) {
			_, err := ef(fr)
			return flowNext, err
		}, nil
	case *minipy.Assign:
		return c.compileAssign(sc, t)
	case *minipy.AnnAssign:
		if t.Value == nil {
			return sc.declare(t.Target), nil
		}
		return c.compileAssign(sc, &minipy.Assign{Targets: []minipy.Expr{t.Target}, Value: t.Value})
	case *minipy.AugAssign:
		return c.compileAugAssign(sc, t)
	case *minipy.Return:
		if t.Value == nil {
			return func(fr *Frame) (flow, error) {
				fr.ret = nil
				return flowReturn, nil
			}, nil
		}
		ef, err := c.compileExpr(sc, t.Value)
		if err != nil {
			return nil, err
		}
		return func(fr *Frame) (flow, error) {
			v, err := ef(fr)
			if err != nil {
				return flowNext, err
			}
			fr.ret = v
			return flowReturn, nil
		}, nil
	case *minipy.Pass:
		return func(fr *Frame) (flow, error) { return flowNext, nil }, nil
	case *minipy.Break:
		return func(fr *Frame) (flow, error) { return flowBreak, nil }, nil
	case *minipy.Continue:
		return func(fr *Frame) (flow, error) { return flowContinue, nil }, nil
	case *minipy.Global, *minipy.Nonlocal:
		return func(fr *Frame) (flow, error) { return flowNext, nil }, nil
	case *minipy.If:
		condf, err := c.compileCond(sc, t.Cond)
		if err != nil {
			return nil, err
		}
		thenf, err := c.compileStmts(sc, t.Body)
		if err != nil {
			return nil, err
		}
		var elsef stmtFn
		if len(t.Else) > 0 {
			elsef, err = c.compileStmts(sc, t.Else)
			if err != nil {
				return nil, err
			}
		}
		return func(fr *Frame) (flow, error) {
			ok, err := condf(fr)
			if err != nil {
				return flowNext, err
			}
			if ok {
				return thenf(fr)
			}
			if elsef != nil {
				return elsef(fr)
			}
			return flowNext, nil
		}, nil
	case *minipy.While:
		return c.compileWhile(sc, t)
	case *minipy.For:
		return c.compileFor(sc, t)
	case *minipy.FuncDef:
		mk, err := c.compileClosure(sc, t)
		if err != nil {
			return nil, err
		}
		store := sc.store(t.Name)
		if len(t.Decorators) > 0 {
			decFns, err := c.compileExprs(sc, t.Decorators)
			if err != nil {
				return nil, err
			}
			pos := t.NodePos()
			return func(fr *Frame) (flow, error) {
				v, err := mk(fr)
				if err != nil {
					return flowNext, err
				}
				for i := len(decFns) - 1; i >= 0; i-- {
					d, err := decFns[i](fr)
					if err != nil {
						return flowNext, err
					}
					v, err = fr.th.Call(d, []interp.Value{v}, pos)
					if err != nil {
						return flowNext, err
					}
				}
				return flowNext, store(fr, v)
			}, nil
		}
		return func(fr *Frame) (flow, error) {
			v, err := mk(fr)
			if err != nil {
				return flowNext, err
			}
			return flowNext, store(fr, v)
		}, nil
	case *minipy.With:
		// Untransformed with blocks are inert containers (§III-A).
		var setups []stmtFn
		for _, item := range t.Items {
			cf, err := c.compileExpr(sc, item.Context)
			if err != nil {
				return nil, err
			}
			var as func(fr *Frame, v interp.Value) error
			if item.Vars != nil {
				if n, ok := item.Vars.(*minipy.Name); ok {
					as = sc.store(n.ID)
				}
			}
			asFn := as
			setups = append(setups, func(fr *Frame) (flow, error) {
				v, err := cf(fr)
				if err != nil {
					return flowNext, err
				}
				if asFn != nil {
					return flowNext, asFn(fr, v)
				}
				return flowNext, nil
			})
		}
		bodyf, err := c.compileStmts(sc, t.Body)
		if err != nil {
			return nil, err
		}
		return func(fr *Frame) (flow, error) {
			for _, su := range setups {
				if _, err := su(fr); err != nil {
					return flowNext, err
				}
			}
			return bodyf(fr)
		}, nil
	case *minipy.Try:
		return c.compileTry(sc, t)
	case *minipy.Raise:
		if t.Exc == nil {
			return func(fr *Frame) (flow, error) {
				return flowNext, interp.NewPyError("RuntimeError",
					"no active exception to re-raise", t.NodePos())
			}, nil
		}
		ef, err := c.compileExpr(sc, t.Exc)
		if err != nil {
			return nil, err
		}
		pos := t.NodePos()
		return func(fr *Frame) (flow, error) {
			v, err := ef(fr)
			if err != nil {
				return flowNext, err
			}
			return flowNext, interp.RaiseValue(v, pos)
		}, nil
	case *minipy.Assert:
		testf, err := c.compileCond(sc, t.Test)
		if err != nil {
			return nil, err
		}
		var msgf exprFn
		if t.Msg != nil {
			msgf, err = c.compileExpr(sc, t.Msg)
			if err != nil {
				return nil, err
			}
		}
		pos := t.NodePos()
		return func(fr *Frame) (flow, error) {
			ok, err := testf(fr)
			if err != nil {
				return flowNext, err
			}
			if ok {
				return flowNext, nil
			}
			msg := ""
			if msgf != nil {
				mv, err := msgf(fr)
				if err != nil {
					return flowNext, err
				}
				msg = interp.Str(mv)
			}
			return flowNext, interp.NewPyError("AssertionError", msg, pos)
		}, nil
	case *minipy.Import:
		names := t.Names
		stores := make([]func(fr *Frame, v interp.Value) error, len(names))
		for i, a := range names {
			bind := a.AsName
			if bind == "" {
				bind = a.Name
			}
			stores[i] = sc.store(bind)
		}
		return func(fr *Frame) (flow, error) {
			for i, a := range names {
				m, err := fr.th.Interp().ImportModule(a.Name)
				if err != nil {
					return flowNext, err
				}
				if err := stores[i](fr, m); err != nil {
					return flowNext, err
				}
			}
			return flowNext, nil
		}, nil
	case *minipy.FromImport:
		if t.Star {
			return nil, interp.NewPyError("SyntaxError",
				"import * is only allowed at module level", t.NodePos())
		}
		mod := t.Module
		names := t.Names
		stores := make([]func(fr *Frame, v interp.Value) error, len(names))
		for i, a := range names {
			bind := a.AsName
			if bind == "" {
				bind = a.Name
			}
			stores[i] = sc.store(bind)
		}
		pos := t.NodePos()
		return func(fr *Frame) (flow, error) {
			m, err := fr.th.Interp().ImportModule(mod)
			if err != nil {
				return flowNext, err
			}
			for i, a := range names {
				v, err := fr.th.GetAttr(m, a.Name, pos)
				if err != nil {
					return flowNext, err
				}
				if err := stores[i](fr, v); err != nil {
					return flowNext, err
				}
			}
			return flowNext, nil
		}, nil
	case *minipy.Del:
		return c.compileDel(sc, t)
	}
	return nil, interp.NewPyError("TypeError", "unsupported statement in compiled code", s.NodePos())
}

func (c *compiler) compileTry(sc *scopeCtx, t *minipy.Try) (stmtFn, error) {
	bodyf, err := c.compileStmts(sc, t.Body)
	if err != nil {
		return nil, err
	}
	type handler struct {
		typeName string // "" = bare except
		bindName string
		body     stmtFn
		store    func(fr *Frame, v interp.Value) error
	}
	handlers := make([]handler, 0, len(t.Handlers))
	for _, h := range t.Handlers {
		hf, err := c.compileStmts(sc, h.Body)
		if err != nil {
			return nil, err
		}
		hd := handler{body: hf, bindName: h.Name}
		if h.Type != nil {
			n, ok := h.Type.(*minipy.Name)
			if !ok {
				return nil, interp.NewPyError("SyntaxError",
					"except type must be a name", t.NodePos())
			}
			hd.typeName = n.ID
		}
		if h.Name != "" {
			hd.store = sc.store(h.Name)
		}
		handlers = append(handlers, hd)
	}
	var finalf stmtFn
	if len(t.Final) > 0 {
		finalf, err = c.compileStmts(sc, t.Final)
		if err != nil {
			return nil, err
		}
	}
	return func(fr *Frame) (flow, error) {
		fl, err := bodyf(fr)
		if err != nil {
			var pe *interp.PyError
			if errors.As(err, &pe) {
				for _, h := range handlers {
					if h.typeName != "" && !pe.Matches(h.typeName) {
						continue
					}
					if h.store != nil {
						exc := pe.Value
						if exc == nil {
							exc = &interp.ExcValue{Type: pe.Type, Msg: pe.Msg}
						}
						if serr := h.store(fr, exc); serr != nil {
							err = serr
							break
						}
					}
					fl, err = h.body(fr)
					break
				}
			}
		}
		if finalf != nil {
			ffl, ferr := finalf(fr)
			if ferr != nil {
				return flowNext, ferr
			}
			if ffl != flowNext {
				return ffl, nil
			}
		}
		return fl, err
	}, nil
}

func (c *compiler) compileDel(sc *scopeCtx, t *minipy.Del) (stmtFn, error) {
	var dels []stmtFn
	for _, tgt := range t.Targets {
		switch d := tgt.(type) {
		case *minipy.Index:
			xf, err := c.compileExpr(sc, d.X)
			if err != nil {
				return nil, err
			}
			inf, err := c.compileExpr(sc, d.I)
			if err != nil {
				return nil, err
			}
			pos := d.NodePos()
			dels = append(dels, func(fr *Frame) (flow, error) {
				x, err := xf(fr)
				if err != nil {
					return flowNext, err
				}
				idx, err := inf(fr)
				if err != nil {
					return flowNext, err
				}
				return flowNext, interp.DeleteItem(x, idx, pos)
			})
		case *minipy.Name:
			store := sc.store(d.ID)
			dels = append(dels, func(fr *Frame) (flow, error) {
				// Deleting rebinds to the unbound marker; compiled
				// code treats it as undefined on the next read.
				return flowNext, store(fr, unboundMarker)
			})
		default:
			return nil, interp.NewPyError("TypeError", "cannot delete this target", t.NodePos())
		}
	}
	return func(fr *Frame) (flow, error) {
		for _, d := range dels {
			if _, err := d(fr); err != nil {
				return flowNext, err
			}
		}
		return flowNext, nil
	}, nil
}

func (c *compiler) compileAssign(sc *scopeCtx, t *minipy.Assign) (stmtFn, error) {
	// Typed fast path: x = <float expr> straight into the slot.
	if c.opts.Typed && len(t.Targets) == 1 {
		if f, ok, err := c.compileTypedAssign(sc, t.Targets[0], t.Value); ok || err != nil {
			return f, err
		}
	}
	vf, err := c.compileExpr(sc, t.Value)
	if err != nil {
		return nil, err
	}
	assigns := make([]func(fr *Frame, v interp.Value) error, len(t.Targets))
	for i, tgt := range t.Targets {
		af, err := c.compileTarget(sc, tgt)
		if err != nil {
			return nil, err
		}
		assigns[i] = af
	}
	return func(fr *Frame) (flow, error) {
		v, err := vf(fr)
		if err != nil {
			return flowNext, err
		}
		for _, af := range assigns {
			if err := af(fr, v); err != nil {
				return flowNext, err
			}
		}
		return flowNext, nil
	}, nil
}

// compileTarget builds the store half of an assignment target.
func (c *compiler) compileTarget(sc *scopeCtx, tgt minipy.Expr) (func(fr *Frame, v interp.Value) error, error) {
	switch d := tgt.(type) {
	case *minipy.Name:
		return sc.store(d.ID), nil
	case *minipy.Index:
		xf, err := c.compileExpr(sc, d.X)
		if err != nil {
			return nil, err
		}
		inf, err := c.compileExpr(sc, d.I)
		if err != nil {
			return nil, err
		}
		pos := d.NodePos()
		return func(fr *Frame, v interp.Value) error {
			x, err := xf(fr)
			if err != nil {
				return err
			}
			idx, err := inf(fr)
			if err != nil {
				return err
			}
			return fr.th.SetItem(x, idx, v, pos)
		}, nil
	case *minipy.Attribute:
		xf, err := c.compileExpr(sc, d.X)
		if err != nil {
			return nil, err
		}
		name, pos := d.Name, d.NodePos()
		return func(fr *Frame, v interp.Value) error {
			x, err := xf(fr)
			if err != nil {
				return err
			}
			return interp.SetAttrValue(x, name, v, pos)
		}, nil
	case *minipy.TupleLit:
		return c.compileUnpack(sc, d.Elts, d.NodePos())
	case *minipy.ListLit:
		return c.compileUnpack(sc, d.Elts, d.NodePos())
	}
	return nil, interp.NewPyError("TypeError", "cannot assign to this target", tgt.NodePos())
}

func (c *compiler) compileUnpack(sc *scopeCtx, elts []minipy.Expr, pos minipy.Position) (func(fr *Frame, v interp.Value) error, error) {
	subs := make([]func(fr *Frame, v interp.Value) error, len(elts))
	for i, el := range elts {
		af, err := c.compileTarget(sc, el)
		if err != nil {
			return nil, err
		}
		subs[i] = af
	}
	return func(fr *Frame, v interp.Value) error {
		var vals []interp.Value
		switch src := v.(type) {
		case *interp.Tuple:
			vals = src.Elts
		case *interp.List:
			vals = src.Values()
		default:
			return interp.NewPyError("TypeError", "cannot unpack non-sequence", pos)
		}
		if len(vals) != len(subs) {
			return interp.NewPyError("ValueError", "unpacking arity mismatch", pos)
		}
		for i, af := range subs {
			if err := af(fr, vals[i]); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

func (c *compiler) compileAugAssign(sc *scopeCtx, t *minipy.AugAssign) (stmtFn, error) {
	// Typed fast path.
	if c.opts.Typed {
		if f, ok, err := c.compileTypedAugAssign(sc, t); ok || err != nil {
			return f, err
		}
	}
	switch d := t.Target.(type) {
	case *minipy.Name:
		loadf := sc.load(d.ID, d.NodePos())
		storef := sc.store(d.ID)
		vf, err := c.compileExpr(sc, t.Value)
		if err != nil {
			return nil, err
		}
		op, pos := t.Op, t.NodePos()
		return func(fr *Frame) (flow, error) {
			cur, err := loadf(fr)
			if err != nil {
				return flowNext, err
			}
			rhs, err := vf(fr)
			if err != nil {
				return flowNext, err
			}
			nv, err := fr.th.BinaryOp(op, cur, rhs, pos)
			if err != nil {
				return flowNext, err
			}
			return flowNext, storef(fr, nv)
		}, nil
	case *minipy.Index:
		xf, err := c.compileExpr(sc, d.X)
		if err != nil {
			return nil, err
		}
		inf, err := c.compileExpr(sc, d.I)
		if err != nil {
			return nil, err
		}
		vf, err := c.compileExpr(sc, t.Value)
		if err != nil {
			return nil, err
		}
		op, pos := t.Op, t.NodePos()
		return func(fr *Frame) (flow, error) {
			x, err := xf(fr)
			if err != nil {
				return flowNext, err
			}
			idx, err := inf(fr)
			if err != nil {
				return flowNext, err
			}
			cur, err := fr.th.GetItem(x, idx, pos)
			if err != nil {
				return flowNext, err
			}
			rhs, err := vf(fr)
			if err != nil {
				return flowNext, err
			}
			nv, err := fr.th.BinaryOp(op, cur, rhs, pos)
			if err != nil {
				return flowNext, err
			}
			return flowNext, fr.th.SetItem(x, idx, nv, pos)
		}, nil
	}
	return nil, interp.NewPyError("TypeError", "invalid augmented assignment target", t.NodePos())
}

// lazy returns the closure form of body, compiled on first use: the
// form an IR loop falls back to when an entry guard fails. Install
// builds one form per loop; this one is built at most once, under a
// lock, with the IR switched off so it allocates no registers the
// function's frames were not sized for.
func (c *compiler) lazy(sc *scopeCtx, body []minipy.Stmt) func() (stmtFn, error) {
	var once sync.Once
	var f stmtFn
	var err error
	return func() (stmtFn, error) {
		once.Do(func() {
			c.lazyMu.Lock()
			defer c.lazyMu.Unlock()
			saved := c.kernels
			c.kernels = false
			f, err = c.compileStmts(sc, body)
			c.kernels = saved
		})
		return f, err
	}
}

func (c *compiler) compileWhile(sc *scopeCtx, t *minipy.While) (stmtFn, error) {
	if c.kernels {
		if prog := c.lowerLoop(sc, t); prog != nil {
			slow := c.lazy(sc, []minipy.Stmt{t})
			return func(fr *Frame) (flow, error) {
				if prog.enter(fr) {
					return prog.run(fr, 0, 0, 0)
				}
				whole, err := slow()
				if err != nil {
					return flowNext, err
				}
				return whole(fr)
			}, nil
		}
	}
	condf, err := c.compileCond(sc, t.Cond)
	if err != nil {
		return nil, err
	}
	bodyf, err := c.compileStmts(sc, t.Body)
	if err != nil {
		return nil, err
	}
	pos := t.NodePos()
	return func(fr *Frame) (flow, error) {
		for {
			ok, err := condf(fr)
			if err != nil {
				return flowNext, err
			}
			if !ok {
				return flowNext, nil
			}
			fl, err := bodyf(fr)
			if err != nil {
				return flowNext, err
			}
			switch fl {
			case flowBreak:
				return flowNext, nil
			case flowReturn:
				return flowReturn, nil
			}
			if err := fr.tick(pos); err != nil {
				return flowNext, err
			}
		}
	}, nil
}

func (c *compiler) compileFor(sc *scopeCtx, t *minipy.For) (stmtFn, error) {
	// Native int loop for "for i in range(...)".
	if call, ok := t.Iter.(*minipy.Call); ok && isRangeCall(t.Iter) {
		if n, ok := t.Target.(*minipy.Name); ok {
			var startE, stopE, stepE minipy.Expr
			switch len(call.Args) {
			case 1:
				startE, stopE, stepE = nil, call.Args[0], nil
			case 2:
				startE, stopE, stepE = call.Args[0], call.Args[1], nil
			case 3:
				startE, stopE, stepE = call.Args[0], call.Args[1], call.Args[2]
			default:
				return nil, interp.NewPyError("TypeError", "range expected 1 to 3 arguments", t.NodePos())
			}
			startf, err := c.compileIntOrConst(sc, startE, 0)
			if err != nil {
				return nil, err
			}
			stopf, err := c.compileIntOrConst(sc, stopE, 0)
			if err != nil {
				return nil, err
			}
			stepf, err := c.compileIntOrConst(sc, stepE, 1)
			if err != nil {
				return nil, err
			}
			ref := sc.resolve(n.ID)
			var setVar func(fr *Frame, v int64) error
			switch ref.kind {
			case refISlot:
				idx := ref.idx
				setVar = func(fr *Frame, v int64) error { fr.i[idx] = v; return nil }
			default:
				store := sc.store(n.ID)
				setVar = func(fr *Frame, v int64) error { return store(fr, v) }
			}
			// One form per loop: the typed loop IR when the nest
			// lowers (its closure body is then built only on a failed
			// entry guard), else the closure body.
			form, err := c.loopBody(sc, t)
			if err != nil {
				return nil, err
			}
			pos := t.NodePos()
			return func(fr *Frame) (flow, error) {
				start, err := startf(fr)
				if err != nil {
					return flowNext, err
				}
				stop, err := stopf(fr)
				if err != nil {
					return flowNext, err
				}
				step, err := stepf(fr)
				if err != nil {
					return flowNext, err
				}
				if step == 0 {
					return flowNext, interp.FaultStep.Err(pos)
				}
				bodyf, err := form.enter(fr)
				if err != nil {
					return flowNext, err
				}
				if bodyf == nil {
					return form.prog.run(fr, start, stop, step)
				}
				for v := start; (step > 0 && v < stop) || (step < 0 && v > stop); v += step {
					if err := setVar(fr, v); err != nil {
						return flowNext, err
					}
					fl, err := bodyf(fr)
					if err != nil {
						return flowNext, err
					}
					if fl == flowBreak {
						return flowNext, nil
					}
					if fl == flowReturn {
						return flowReturn, nil
					}
					if err := fr.tick(pos); err != nil {
						return flowNext, err
					}
				}
				return flowNext, nil
			}, nil
		}
	}
	bodyf, err := c.compileStmts(sc, t.Body)
	if err != nil {
		return nil, err
	}
	// Generic iteration.
	iterf, err := c.compileExpr(sc, t.Iter)
	if err != nil {
		return nil, err
	}
	targetf, err := c.compileTarget(sc, t.Target)
	if err != nil {
		return nil, err
	}
	pos := t.NodePos()
	return func(fr *Frame) (flow, error) {
		iter, err := iterf(fr)
		if err != nil {
			return flowNext, err
		}
		runOne := func(v interp.Value) (flow, error) {
			if err := targetf(fr, v); err != nil {
				return flowNext, err
			}
			fl, err := bodyf(fr)
			if err != nil {
				return flowNext, err
			}
			switch fl {
			case flowBreak:
				return flowBreak, nil
			case flowReturn:
				return flowReturn, nil
			}
			return flowNext, fr.tick(pos)
		}
		if l, ok := iter.(*interp.List); ok {
			// Lists iterate live (growing lists are seen), matching
			// the interpreter.
			for i := 0; i < l.Len(); i++ {
				fl, err := runOne(l.Get(i))
				if err != nil {
					return flowNext, err
				}
				if fl == flowBreak {
					return flowNext, nil
				}
				if fl == flowReturn {
					return flowReturn, nil
				}
			}
			return flowNext, nil
		}
		vals, err := interp.IterValues(iter)
		if err != nil {
			return flowNext, interp.NewPyError("TypeError",
				"object is not iterable", pos)
		}
		for _, v := range vals {
			fl, err := runOne(v)
			if err != nil {
				return flowNext, err
			}
			if fl == flowBreak {
				return flowNext, nil
			}
			if fl == flowReturn {
				return flowReturn, nil
			}
		}
		return flowNext, nil
	}, nil
}

// compileIntOrConst compiles e as an int expression; nil yields the
// constant def.
func (c *compiler) compileIntOrConst(sc *scopeCtx, e minipy.Expr, def int64) (intFn, error) {
	if e == nil {
		return func(fr *Frame) (int64, error) { return def, nil }, nil
	}
	return c.compileInt(sc, e)
}
