package interp

import (
	"errors"

	"github.com/omp4go/omp4go/internal/minipy"
)

// frame is the execution context of one function activation (or the
// module top level, where scope is nil and env == globals).
type frame struct {
	env     *Env
	globals *Env
	scope   *minipy.ScopeInfo
}

// execBlock executes statements at module level (env == globals).
func (th *Thread) execBlock(env, globals *Env, body []minipy.Stmt) error {
	fr := &frame{env: env, globals: globals}
	return th.execStmts(fr, body)
}

func (th *Thread) execStmts(fr *frame, body []minipy.Stmt) error {
	for _, s := range body {
		if err := th.execStmt(fr, s); err != nil {
			return err
		}
	}
	return nil
}

func (th *Thread) execStmt(fr *frame, s minipy.Stmt) error {
	if err := th.tick(s.NodePos()); err != nil {
		return err
	}
	switch t := s.(type) {
	case *minipy.ExprStmt:
		_, err := th.evalExpr(fr, t.X)
		return err
	case *minipy.Assign:
		v, err := th.evalExpr(fr, t.Value)
		if err != nil {
			return err
		}
		for _, tgt := range t.Targets {
			if err := th.assign(fr, tgt, v); err != nil {
				return err
			}
		}
		return nil
	case *minipy.AugAssign:
		return th.execAugAssign(fr, t)
	case *minipy.AnnAssign:
		// Annotations drive the CompiledDT specializer; the
		// interpreter only performs the assignment part.
		if t.Value == nil {
			// A bare declaration leaves a bound name alone and starts an
			// unbound local from None (CompiledDT starts an int or float
			// one from zero): the private copy of a declared variable is
			// declared like it, and reads as "no value" until assigned.
			if n, ok := t.Target.(*minipy.Name); ok && fr.scope != nil && fr.scope.IsLocal(n.ID) {
				if c, ok := fr.env.Lookup(n.ID); ok {
					if _, set := c.Get(); !set {
						c.SetValue(nil)
					}
				}
			}
			return nil
		}
		v, err := th.evalExpr(fr, t.Value)
		if err != nil {
			return err
		}
		return th.assign(fr, t.Target, v)
	case *minipy.If:
		cond, err := th.evalExpr(fr, t.Cond)
		if err != nil {
			return err
		}
		if Truthy(cond) {
			return th.execStmts(fr, t.Body)
		}
		return th.execStmts(fr, t.Else)
	case *minipy.While:
		for {
			cond, err := th.evalExpr(fr, t.Cond)
			if err != nil {
				return err
			}
			if !Truthy(cond) {
				return nil
			}
			if err := th.execStmts(fr, t.Body); err != nil {
				if _, ok := err.(breakSignal); ok {
					return nil
				}
				if _, ok := err.(continueSignal); ok {
					continue
				}
				return err
			}
		}
	case *minipy.For:
		return th.execFor(fr, t)
	case *minipy.Break:
		return breakSignal{}
	case *minipy.Continue:
		return continueSignal{}
	case *minipy.Pass:
		return nil
	case *minipy.Return:
		var v Value
		if t.Value != nil {
			var err error
			v, err = th.evalExpr(fr, t.Value)
			if err != nil {
				return err
			}
		}
		return returnSignal{v: v}
	case *minipy.FuncDef:
		fn, err := th.makeFunction(fr, t)
		if err != nil {
			return err
		}
		v, err := th.applyDecorators(fr, t.Decorators, fn)
		if err != nil {
			return err
		}
		return th.assign(fr, &minipy.Name{ID: t.Name}, v)
	case *minipy.With:
		return th.execWith(fr, t)
	case *minipy.Global, *minipy.Nonlocal:
		return nil // handled by scope analysis
	case *minipy.Import:
		for _, a := range t.Names {
			mod, err := th.importModule(a.Name, s.NodePos())
			if err != nil {
				return err
			}
			name := a.AsName
			if name == "" {
				name = a.Name
			}
			if err := th.assign(fr, &minipy.Name{ID: name}, mod); err != nil {
				return err
			}
		}
		return nil
	case *minipy.FromImport:
		mod, err := th.importModule(t.Module, s.NodePos())
		if err != nil {
			return err
		}
		m := mod.(*Module)
		if t.Star {
			for name, v := range m.Attrs {
				if err := th.assign(fr, &minipy.Name{ID: name}, v); err != nil {
					return err
				}
			}
			return nil
		}
		for _, a := range t.Names {
			v, ok := m.Attrs[a.Name]
			if !ok {
				return &PyError{Type: "ImportError",
					Msg: "cannot import name '" + a.Name + "' from '" + t.Module + "'",
					Pos: s.NodePos()}
			}
			name := a.AsName
			if name == "" {
				name = a.Name
			}
			if err := th.assign(fr, &minipy.Name{ID: name}, v); err != nil {
				return err
			}
		}
		return nil
	case *minipy.Try:
		return th.execTry(fr, t)
	case *minipy.Raise:
		if t.Exc == nil {
			return &PyError{Type: "RuntimeError", Msg: "no active exception to re-raise", Pos: t.NodePos()}
		}
		v, err := th.evalExpr(fr, t.Exc)
		if err != nil {
			return err
		}
		switch e := v.(type) {
		case *ExcValue:
			return &PyError{Type: e.Type, Msg: Str(e.Msg), Pos: t.NodePos(), Value: e}
		case *Builtin:
			// raise ValueError (class, not instance)
			return &PyError{Type: e.Name, Msg: "", Pos: t.NodePos()}
		case string:
			return &PyError{Type: "Exception", Msg: e, Pos: t.NodePos()}
		}
		return typeErrorf(t.NodePos(), "exceptions must derive from BaseException")
	case *minipy.Assert:
		v, err := th.evalExpr(fr, t.Test)
		if err != nil {
			return err
		}
		if Truthy(v) {
			return nil
		}
		msg := ""
		if t.Msg != nil {
			mv, err := th.evalExpr(fr, t.Msg)
			if err != nil {
				return err
			}
			msg = Str(mv)
		}
		return &PyError{Type: "AssertionError", Msg: msg, Pos: t.NodePos()}
	case *minipy.Del:
		for _, tgt := range t.Targets {
			if err := th.execDel(fr, tgt); err != nil {
				return err
			}
		}
		return nil
	}
	return typeErrorf(s.NodePos(), "unsupported statement %T", s)
}

func (th *Thread) execFor(fr *frame, t *minipy.For) error {
	iter, err := th.evalExpr(fr, t.Iter)
	if err != nil {
		return err
	}
	runBody := func(loopVal Value) (stop bool, err error) {
		if err := th.assign(fr, t.Target, loopVal); err != nil {
			return true, err
		}
		if err := th.execStmts(fr, t.Body); err != nil {
			if _, ok := err.(breakSignal); ok {
				return true, nil
			}
			if _, ok := err.(continueSignal); ok {
				return false, nil
			}
			return true, err
		}
		return false, nil
	}
	switch it := iter.(type) {
	case *Range:
		if it.Step > 0 {
			for i := it.Start; i < it.Stop; i += it.Step {
				if stop, err := runBody(i); stop {
					return err
				}
			}
		} else if it.Step < 0 {
			for i := it.Start; i > it.Stop; i += it.Step {
				if stop, err := runBody(i); stop {
					return err
				}
			}
		}
		return nil
	case *List:
		for i := 0; i < it.Len(); i++ {
			if stop, err := runBody(it.Get(i)); stop {
				return err
			}
		}
		return nil
	case *Tuple:
		for _, v := range it.Elts {
			if stop, err := runBody(v); stop {
				return err
			}
		}
		return nil
	case *Dict:
		for _, kv := range it.Items() {
			if stop, err := runBody(kv[0]); stop {
				return err
			}
		}
		return nil
	case *Set:
		for _, v := range it.Values() {
			if stop, err := runBody(v); stop {
				return err
			}
		}
		return nil
	case string:
		for _, r := range it {
			if stop, err := runBody(string(r)); stop {
				return err
			}
		}
		return nil
	}
	return typeErrorf(t.NodePos(), "'%s' object is not iterable", TypeName(iter))
}

func (th *Thread) execAugAssign(fr *frame, t *minipy.AugAssign) error {
	switch tgt := t.Target.(type) {
	case *minipy.Name:
		cur, err := th.evalExpr(fr, tgt)
		if err != nil {
			return err
		}
		rhs, err := th.evalExpr(fr, t.Value)
		if err != nil {
			return err
		}
		nv, err := th.binaryOp(t.Op, cur, rhs, t.NodePos())
		if err != nil {
			return err
		}
		return th.assign(fr, tgt, nv)
	case *minipy.Index:
		cont, err := th.evalExpr(fr, tgt.X)
		if err != nil {
			return err
		}
		idx, err := th.evalExpr(fr, tgt.I)
		if err != nil {
			return err
		}
		cur, err := th.getItem(cont, idx, t.NodePos())
		if err != nil {
			return err
		}
		rhs, err := th.evalExpr(fr, t.Value)
		if err != nil {
			return err
		}
		nv, err := th.binaryOp(t.Op, cur, rhs, t.NodePos())
		if err != nil {
			return err
		}
		return th.setItem(cont, idx, nv, t.NodePos())
	case *minipy.Attribute:
		cur, err := th.evalExpr(fr, tgt)
		if err != nil {
			return err
		}
		rhs, err := th.evalExpr(fr, t.Value)
		if err != nil {
			return err
		}
		nv, err := th.binaryOp(t.Op, cur, rhs, t.NodePos())
		if err != nil {
			return err
		}
		return th.assign(fr, tgt, nv)
	}
	return typeErrorf(t.NodePos(), "invalid augmented assignment target")
}

// assign stores v into an assignment target.
func (th *Thread) assign(fr *frame, target minipy.Expr, v Value) error {
	switch tgt := target.(type) {
	case *minipy.Name:
		th.assignName(fr, tgt.ID, v)
		return nil
	case *minipy.Index:
		cont, err := th.evalExpr(fr, tgt.X)
		if err != nil {
			return err
		}
		idx, err := th.evalExpr(fr, tgt.I)
		if err != nil {
			return err
		}
		return th.setItem(cont, idx, v, tgt.NodePos())
	case *minipy.Attribute:
		obj, err := th.evalExpr(fr, tgt.X)
		if err != nil {
			return err
		}
		if m, ok := obj.(*Module); ok {
			m.Attrs[tgt.Name] = v
			return nil
		}
		return typeErrorf(tgt.NodePos(), "cannot set attribute %q on %s", tgt.Name, TypeName(obj))
	case *minipy.TupleLit:
		return th.unpack(fr, tgt.Elts, v, tgt.NodePos())
	case *minipy.ListLit:
		return th.unpack(fr, tgt.Elts, v, tgt.NodePos())
	case *minipy.SliceExpr:
		return typeErrorf(tgt.NodePos(), "slice assignment is not supported")
	}
	return typeErrorf(target.NodePos(), "cannot assign to %T", target)
}

func (th *Thread) unpack(fr *frame, targets []minipy.Expr, v Value, pos minipy.Position) error {
	var vals []Value
	switch src := v.(type) {
	case *Tuple:
		vals = src.Elts
	case *List:
		vals = src.Values()
	default:
		return typeErrorf(pos, "cannot unpack non-sequence %s", TypeName(v))
	}
	if len(vals) != len(targets) {
		return valueErrorf(pos, "expected %d values to unpack, got %d", len(targets), len(vals))
	}
	for i, tgt := range targets {
		if err := th.assign(fr, tgt, vals[i]); err != nil {
			return err
		}
	}
	return nil
}

// assignName implements Python's binding rules using the frame's
// scope info.
func (th *Thread) assignName(fr *frame, name string, v Value) {
	if fr.scope != nil {
		switch {
		case fr.scope.Globals[name]:
			fr.globals.DefineValue(name, v)
			return
		case fr.scope.Nonlocals[name]:
			// Find the cell in an enclosing function scope.
			for env := fr.env.parent; env != nil; env = env.parent {
				if env == fr.globals {
					break
				}
				if c, ok := env.Lookup(name); ok {
					c.SetValue(v)
					return
				}
			}
			// Conforming programs declare nonlocal only for existing
			// bindings; fall through to a local definition otherwise.
		}
	}
	fr.env.DefineValue(name, v)
}

func (th *Thread) execDel(fr *frame, target minipy.Expr) error {
	switch tgt := target.(type) {
	case *minipy.Index:
		cont, err := th.evalExpr(fr, tgt.X)
		if err != nil {
			return err
		}
		idx, err := th.evalExpr(fr, tgt.I)
		if err != nil {
			return err
		}
		switch c := cont.(type) {
		case *Dict:
			ok, err := c.Delete(idx)
			if err != nil {
				return err
			}
			if !ok {
				return &PyError{Type: "KeyError", Msg: Repr(idx), Pos: tgt.NodePos()}
			}
			return nil
		case *List:
			i, ok := idx.(int64)
			if !ok {
				return typeErrorf(tgt.NodePos(), "list indices must be integers")
			}
			if _, ok := c.Pop(int(i)); !ok {
				return FaultLoad.Err(tgt.NodePos())
			}
			return nil
		}
		return typeErrorf(tgt.NodePos(), "cannot delete item of %s", TypeName(cont))
	case *minipy.Name:
		// Deleting a binding: mark the cell unset. Pre-bound but
		// never-assigned locals (frame setup defines every local
		// upfront) count as undefined here.
		if c, ok := fr.env.Resolve(tgt.ID); ok && c.set {
			c.set = false
			c.v = nil
			return nil
		}
		return nameErrorf(tgt.NodePos(), "name %q is not defined", tgt.ID)
	}
	return typeErrorf(target.NodePos(), "cannot delete %T", target)
}

func (th *Thread) execTry(fr *frame, t *minipy.Try) error {
	err := th.execStmts(fr, t.Body)
	if err != nil {
		var pe *PyError
		if errors.As(err, &pe) {
			handled := false
			for _, h := range t.Handlers {
				match := h.Type == nil
				if !match {
					if name, ok := h.Type.(*minipy.Name); ok {
						match = pe.Matches(name.ID)
					}
				}
				if !match {
					continue
				}
				handled = true
				if h.Name != "" {
					exc := pe.Value
					if exc == nil {
						exc = &ExcValue{Type: pe.Type, Msg: pe.Msg}
					}
					th.assignName(fr, h.Name, exc)
				}
				err = th.execStmts(fr, h.Body)
				break
			}
			if !handled {
				// fall through with the original error
			}
		}
		if ferr := th.execStmts(fr, t.Final); ferr != nil {
			return ferr
		}
		return err
	}
	return th.execStmts(fr, t.Final)
}

// execWith runs a with statement. `with omp("...")` blocks reaching
// the interpreter untransformed are inert containers, per §III-A: the
// body simply executes. Other context expressions are evaluated (and
// bound by "as") but no context-manager protocol runs.
func (th *Thread) execWith(fr *frame, t *minipy.With) error {
	for _, item := range t.Items {
		v, err := th.evalExpr(fr, item.Context)
		if err != nil {
			return err
		}
		if item.Vars != nil {
			if err := th.assign(fr, item.Vars, v); err != nil {
				return err
			}
		}
	}
	return th.execStmts(fr, t.Body)
}

func (th *Thread) makeFunction(fr *frame, t *minipy.FuncDef) (*Function, error) {
	fn := &Function{
		Name:    t.Name,
		Params:  t.Params,
		Body:    t.Body,
		Env:     fr.env,
		Scope:   t.Scope,
		Globals: fr.globals,
	}
	// Defaults evaluate once, at definition time.
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
	if th.in.compileHook != nil {
		th.in.compileHook(t, fn)
	}
	return fn, nil
}

func (th *Thread) applyDecorators(fr *frame, decorators []minipy.Expr, fn Value) (Value, error) {
	// Applied bottom-up, as in Python.
	v := fn
	for i := len(decorators) - 1; i >= 0; i-- {
		d, err := th.evalExpr(fr, decorators[i])
		if err != nil {
			return nil, err
		}
		v, err = th.Call(d, []Value{v}, decorators[i].NodePos())
		if err != nil {
			return nil, err
		}
	}
	return v, nil
}

func (th *Thread) importModule(name string, pos minipy.Position) (Value, error) {
	if m, ok := th.in.modules[name]; ok {
		return m, nil
	}
	return nil, &PyError{Type: "ImportError", Msg: "no module named '" + name + "'", Pos: pos}
}
