package compile

import (
	"github.com/omp4go/omp4go/internal/interp"
	"github.com/omp4go/omp4go/internal/minipy"
)

// refKind classifies a resolved name reference.
type refKind int

const (
	refSlot   refKind = iota // boxed local slot
	refCell                  // cell-allocated local (captured by inner functions)
	refFree                  // free variable (cell from an enclosing function)
	refGlobal                // module global / builtin (stable cell)
	refFSlot                 // unboxed float64 slot (CompiledDT)
	refISlot                 // unboxed int64 slot (CompiledDT)
)

type varRef struct {
	kind refKind
	idx  int
	cell *interp.Cell // refGlobal: resolved once at compile time
	typ  valType      // the binding's type; an int or float one holds nothing else, even in a cell
}

// cellIn returns the cell of a refCell or refFree reference in fr.
func (ref varRef) cellIn(fr *Frame) *interp.Cell {
	if ref.kind == refFree {
		return fr.free[ref.idx]
	}
	return fr.cells[ref.idx]
}

// scopeCtx is the compile-time scope of one function.
type scopeCtx struct {
	c      *compiler
	parent *scopeCtx
	scope  *minipy.ScopeInfo

	slotOf map[string]int
	cellOf map[string]int
	fOf    map[string]int
	iOf    map[string]int

	freeOf   map[string]int
	captures []captureSrc

	nSlots int
	types  *typeEnv

	// xI / xF are the int and float registers the function's IR loops
	// need beyond the named slots (the largest demand of any one loop:
	// two IR programs are never active in the same frame at once).
	xI, xF int32
}

// newScope builds the compile-time scope for a function: decides
// which locals need cells (captured by nested functions), which get
// unboxed slots (typed mode), and numbers everything. Types are
// inferred once per outermost def, over its whole tree of nested
// functions; a nested def finds its typing in its parent's.
func (c *compiler) newScope(fd *minipy.FuncDef, parent *scopeCtx) *scopeCtx {
	var types *typeEnv // nil in untyped mode: no binding has a type
	switch {
	case !c.opts.Typed:
	case parent == nil:
		types = inferTypes(fd)
	default:
		if types = parent.types.kids[fd]; types == nil {
			// A lambda: it owns no typed binding, and reads those of the
			// functions around it.
			types = newTypeEnv(fd, parent.types)
		}
	}
	sc := &scopeCtx{
		c:      c,
		parent: parent,
		types:  types,
		slotOf: make(map[string]int),
		cellOf: make(map[string]int),
		fOf:    make(map[string]int),
		iOf:    make(map[string]int),
		freeOf: make(map[string]int),
	}
	if types != nil {
		sc.scope = types.scope
	} else {
		sc.scope = minipy.AnalyzeScope(fd.Params, fd.Body)
	}

	captured := nestedReferences(fd.Body)

	for _, name := range sc.scope.Locals {
		if captured[name] {
			// Captured locals live in cells the closures share. A cell is
			// boxed storage; the binding keeps its type, which every store
			// into the cell upholds (store, storeBinding).
			sc.cellOf[name] = len(sc.cellOf)
			continue
		}
		switch sc.ownType(name) {
		case tFloat:
			sc.fOf[name] = len(sc.fOf)
		case tInt:
			sc.iOf[name] = len(sc.iOf)
		default:
			sc.slotOf[name] = sc.nSlots
			sc.nSlots++
		}
	}
	return sc
}

// ownType is the type of the binding name this function owns.
func (sc *scopeCtx) ownType(name string) valType {
	if sc.types == nil {
		return tUnknown
	}
	return sc.types.own[name]
}

// resolve maps a name reference to its storage.
func (sc *scopeCtx) resolve(name string) varRef {
	if sc.scope.Globals[name] {
		return sc.globalRef(name)
	}
	if sc.scope.IsLocal(name) {
		if i, ok := sc.fOf[name]; ok {
			return varRef{kind: refFSlot, idx: i, typ: tFloat}
		}
		if i, ok := sc.iOf[name]; ok {
			return varRef{kind: refISlot, idx: i, typ: tInt}
		}
		if i, ok := sc.cellOf[name]; ok {
			return varRef{kind: refCell, idx: i, typ: sc.ownType(name)}
		}
		return varRef{kind: refSlot, idx: sc.slotOf[name]}
	}
	// Nonlocal declarations and plain free references both resolve
	// through the enclosing chain; captures thread transitively
	// through every intermediate function so each closure takes its
	// free cells from its immediate defining frame.
	if idx, ok := sc.freeIndex(name); ok {
		return varRef{kind: refFree, idx: idx, typ: sc.types.of(name)}
	}
	return sc.globalRef(name)
}

// freeIndex returns (allocating if needed) this function's free-list
// index for name, capturing transitively from enclosing scopes.
func (sc *scopeCtx) freeIndex(name string) (int, bool) {
	if idx, ok := sc.freeOf[name]; ok {
		return idx, true
	}
	p := sc.parent
	if p == nil || p.scope.Globals[name] {
		return 0, false
	}
	var src captureSrc
	if p.scope.IsLocal(name) {
		src = p.captureFor(name)
	} else {
		pIdx, ok := p.freeIndex(name)
		if !ok {
			return 0, false
		}
		src = captureSrc{fromFree: true, idx: pIdx}
	}
	idx := len(sc.captures)
	sc.captures = append(sc.captures, src)
	sc.freeOf[name] = idx
	return idx, true
}

// captureFor returns how a child closure captures this scope's local.
func (sc *scopeCtx) captureFor(name string) captureSrc {
	if i, ok := sc.cellOf[name]; ok {
		return captureSrc{idx: i}
	}
	// The nested-reference over-approximation guarantees captured
	// locals have cells; reaching here means the analysis missed a
	// name, so promote defensively at compile time.
	i := len(sc.cellOf)
	sc.cellOf[name] = i
	delete(sc.slotOf, name)
	return captureSrc{idx: i}
}

func (sc *scopeCtx) globalRef(name string) varRef {
	// Globals resolve to a stable cell in the module environment
	// (created unset if the name is not bound yet), giving compiled
	// code constant-time global access.
	return varRef{kind: refGlobal, cell: sc.c.in.Globals().Define(name)}
}

// load compiles a variable read.
func (sc *scopeCtx) load(name string, pos minipy.Position) exprFn {
	ref := sc.resolve(name)
	switch ref.kind {
	case refFSlot:
		idx := ref.idx
		return func(fr *Frame) (interp.Value, error) { return fr.f[idx], nil }
	case refISlot:
		idx := ref.idx
		return func(fr *Frame) (interp.Value, error) { return fr.i[idx], nil }
	case refSlot:
		idx := ref.idx
		return func(fr *Frame) (interp.Value, error) {
			v := fr.slots[idx]
			if v == unboundMarker {
				return nil, interp.NewPyError("UnboundLocalError",
					"local variable '"+name+"' referenced before assignment", pos)
			}
			return v, nil
		}
	case refCell:
		idx := ref.idx
		return func(fr *Frame) (interp.Value, error) {
			v, set := fr.cells[idx].Get()
			if !set {
				return nil, interp.NewPyError("UnboundLocalError",
					"local variable '"+name+"' referenced before assignment", pos)
			}
			return v, nil
		}
	case refFree:
		idx := ref.idx
		return func(fr *Frame) (interp.Value, error) {
			v, set := fr.free[idx].Get()
			if !set {
				return nil, interp.NewPyError("NameError",
					"free variable '"+name+"' referenced before assignment", pos)
			}
			return v, nil
		}
	default: // refGlobal
		cell := ref.cell
		return func(fr *Frame) (interp.Value, error) {
			v, set := cell.Get()
			if !set {
				return nil, interp.NewPyError("NameError",
					"name \""+name+"\" is not defined", pos)
			}
			return v, nil
		}
	}
}

// coerce is what a store into a binding typed int or float keeps of v:
// the value as that type, or ok=false when it is no such number.
func coerce(vt valType, v interp.Value) (interp.Value, bool) {
	if vt == tInt {
		if _, exact := v.(int64); exact {
			return v, true
		}
		n, ok := interp.AsInt(v)
		return n, ok
	}
	if _, exact := v.(float64); exact {
		return v, true
	}
	f, ok := interp.AsFloat(v)
	return f, ok
}

// store compiles a variable write. A store into a typed binding
// coerces the value or raises, whether the binding lives in an unboxed
// slot or, captured, in a cell.
func (sc *scopeCtx) store(name string) func(fr *Frame, v interp.Value) error {
	ref := sc.resolveStore(name)
	if isNumeric(ref.typ) {
		refused := func() error {
			return interp.NewPyError("TypeError", "variable '"+name+"' is typed "+ref.typ.String(), minipy.Position{})
		}
		switch ref.kind {
		case refFSlot:
			return func(fr *Frame, v interp.Value) error {
				f, ok := interp.AsFloat(v)
				if !ok {
					return refused()
				}
				fr.f[ref.idx] = f
				return nil
			}
		case refISlot:
			return func(fr *Frame, v interp.Value) error {
				n, ok := interp.AsInt(v)
				if !ok {
					return refused()
				}
				fr.i[ref.idx] = n
				return nil
			}
		}
		return func(fr *Frame, v interp.Value) error {
			v, ok := coerce(ref.typ, v)
			if !ok {
				return refused()
			}
			ref.cellIn(fr).SetValue(v)
			return nil
		}
	}
	switch ref.kind {
	case refSlot:
		idx := ref.idx
		return func(fr *Frame, v interp.Value) error {
			fr.slots[idx] = v
			return nil
		}
	case refCell:
		idx := ref.idx
		return func(fr *Frame, v interp.Value) error {
			fr.cells[idx].SetValue(v)
			return nil
		}
	case refFree:
		idx := ref.idx
		return func(fr *Frame, v interp.Value) error {
			fr.free[idx].SetValue(v)
			return nil
		}
	default:
		cell := ref.cell
		return func(fr *Frame, v interp.Value) error {
			cell.SetValue(v)
			return nil
		}
	}
}

// declare compiles the bare declaration "x: T". It leaves a bound name
// alone and starts an unbound local from the zero of its binding's
// type — what an unboxed slot holds from the start — or, untyped, from
// None, as the interpreter does.
func (sc *scopeCtx) declare(target minipy.Expr) stmtFn {
	nop := func(fr *Frame) (flow, error) { return flowNext, nil }
	n, ok := target.(*minipy.Name)
	if !ok || !sc.scope.IsLocal(n.ID) {
		return nop
	}
	ref := sc.resolve(n.ID)
	var zero interp.Value
	switch ref.typ {
	case tInt:
		zero = int64(0)
	case tFloat:
		zero = 0.0
	}
	switch ref.kind {
	case refSlot:
		return func(fr *Frame) (flow, error) {
			if fr.slots[ref.idx] == unboundMarker {
				fr.slots[ref.idx] = zero
			}
			return flowNext, nil
		}
	case refCell:
		return func(fr *Frame) (flow, error) {
			if _, set := fr.cells[ref.idx].Get(); !set {
				fr.cells[ref.idx].SetValue(zero)
			}
			return flowNext, nil
		}
	}
	return nop
}

// resolveStore is resolve, but writes to undeclared non-local names
// follow the nonlocal declaration (handled by resolve) or create
// globals only when declared global.
func (sc *scopeCtx) resolveStore(name string) varRef {
	if sc.scope.Nonlocals[name] {
		return sc.resolve(name)
	}
	if sc.scope.Globals[name] {
		return sc.globalRef(name)
	}
	if sc.scope.IsLocal(name) {
		return sc.resolve(name)
	}
	// Assignment to a name that scope analysis did not classify:
	// module level (module bodies are not compiled) or dynamic; fall
	// back to a global store.
	return sc.globalRef(name)
}

// unboundMarker distinguishes never-assigned slots from None. Slots
// are pre-filled with it on frame creation via initUnbound.
type unboundType struct{}

var unboundMarker interp.Value = unboundType{}

// nestedReferences over-approximates the set of names referenced by
// nested functions/lambdas anywhere in body (such locals must live in
// cells so closures share them).
func nestedReferences(body []minipy.Stmt) map[string]bool {
	out := make(map[string]bool)
	var walkS func(s minipy.Stmt, inNested bool)
	var walkE func(e minipy.Expr, inNested bool)
	collectInto := func(names map[string]bool) {
		for n := range names {
			out[n] = true
		}
	}
	walkE = func(e minipy.Expr, inNested bool) {
		switch t := e.(type) {
		case *minipy.Lambda:
			collectInto(collectNamesExpr(t.Body))
		case *minipy.BinOp:
			walkE(t.L, inNested)
			walkE(t.R, inNested)
		case *minipy.BoolOp:
			for _, v := range t.Values {
				walkE(v, inNested)
			}
		case *minipy.UnaryOp:
			walkE(t.X, inNested)
		case *minipy.Compare:
			walkE(t.L, inNested)
			for _, r := range t.Rights {
				walkE(r, inNested)
			}
		case *minipy.Call:
			walkE(t.Fn, inNested)
			for _, a := range t.Args {
				walkE(a, inNested)
			}
			for i := range t.Keywords {
				walkE(t.Keywords[i].Value, inNested)
			}
		case *minipy.Attribute:
			walkE(t.X, inNested)
		case *minipy.Index:
			walkE(t.X, inNested)
			walkE(t.I, inNested)
		case *minipy.SliceExpr:
			walkE(t.X, inNested)
			if t.Lo != nil {
				walkE(t.Lo, inNested)
			}
			if t.Hi != nil {
				walkE(t.Hi, inNested)
			}
			if t.Step != nil {
				walkE(t.Step, inNested)
			}
		case *minipy.ListLit:
			for _, el := range t.Elts {
				walkE(el, inNested)
			}
		case *minipy.TupleLit:
			for _, el := range t.Elts {
				walkE(el, inNested)
			}
		case *minipy.DictLit:
			for i := range t.Keys {
				walkE(t.Keys[i], inNested)
				walkE(t.Vals[i], inNested)
			}
		case *minipy.SetLit:
			for _, el := range t.Elts {
				walkE(el, inNested)
			}
		case *minipy.IfExp:
			walkE(t.Cond, inNested)
			walkE(t.Then, inNested)
			walkE(t.Else, inNested)
		}
	}
	walkS = func(s minipy.Stmt, inNested bool) {
		switch t := s.(type) {
		case *minipy.FuncDef:
			// Everything referenced inside a nested function (at any
			// depth) is a potential capture. Defaults evaluate in the
			// outer scope.
			for _, p := range t.Params {
				if p.Default != nil {
					walkE(p.Default, inNested)
				}
			}
			names := make(map[string]bool)
			for _, b := range t.Body {
				for n := range collectNamesStmt(b) {
					names[n] = true
				}
			}
			collectInto(names)
		case *minipy.ExprStmt:
			walkE(t.X, inNested)
		case *minipy.Assign:
			for _, tgt := range t.Targets {
				walkE(tgt, inNested)
			}
			walkE(t.Value, inNested)
		case *minipy.AugAssign:
			walkE(t.Target, inNested)
			walkE(t.Value, inNested)
		case *minipy.AnnAssign:
			walkE(t.Target, inNested)
			if t.Value != nil {
				walkE(t.Value, inNested)
			}
		case *minipy.Return:
			if t.Value != nil {
				walkE(t.Value, inNested)
			}
		case *minipy.If:
			walkE(t.Cond, inNested)
			for _, b := range t.Body {
				walkS(b, inNested)
			}
			for _, b := range t.Else {
				walkS(b, inNested)
			}
		case *minipy.While:
			walkE(t.Cond, inNested)
			for _, b := range t.Body {
				walkS(b, inNested)
			}
		case *minipy.For:
			walkE(t.Target, inNested)
			walkE(t.Iter, inNested)
			for _, b := range t.Body {
				walkS(b, inNested)
			}
		case *minipy.With:
			for _, it := range t.Items {
				walkE(it.Context, inNested)
				if it.Vars != nil {
					walkE(it.Vars, inNested)
				}
			}
			for _, b := range t.Body {
				walkS(b, inNested)
			}
		case *minipy.Try:
			for _, b := range t.Body {
				walkS(b, inNested)
			}
			for _, h := range t.Handlers {
				for _, b := range h.Body {
					walkS(b, inNested)
				}
			}
			for _, b := range t.Final {
				walkS(b, inNested)
			}
		case *minipy.Raise:
			if t.Exc != nil {
				walkE(t.Exc, inNested)
			}
		case *minipy.Assert:
			walkE(t.Test, inNested)
			if t.Msg != nil {
				walkE(t.Msg, inNested)
			}
		case *minipy.Del:
			for _, tgt := range t.Targets {
				walkE(tgt, inNested)
			}
		}
	}
	for _, s := range body {
		walkS(s, false)
	}
	return out
}

// collectNamesStmt gathers every identifier mentioned in a statement,
// including inside nested functions.
func collectNamesStmt(s minipy.Stmt) map[string]bool {
	out := make(map[string]bool)
	var walkS func(minipy.Stmt)
	var walkE func(minipy.Expr)
	walkE = func(e minipy.Expr) {
		if e == nil {
			return
		}
		for n := range collectNamesExpr(e) {
			out[n] = true
		}
	}
	walkS = func(s minipy.Stmt) {
		switch t := s.(type) {
		case *minipy.ExprStmt:
			walkE(t.X)
		case *minipy.Assign:
			for _, tgt := range t.Targets {
				walkE(tgt)
			}
			walkE(t.Value)
		case *minipy.AugAssign:
			walkE(t.Target)
			walkE(t.Value)
		case *minipy.AnnAssign:
			walkE(t.Target)
			walkE(t.Value)
		case *minipy.Return:
			walkE(t.Value)
		case *minipy.If:
			walkE(t.Cond)
			for _, b := range t.Body {
				walkS(b)
			}
			for _, b := range t.Else {
				walkS(b)
			}
		case *minipy.While:
			walkE(t.Cond)
			for _, b := range t.Body {
				walkS(b)
			}
		case *minipy.For:
			walkE(t.Target)
			walkE(t.Iter)
			for _, b := range t.Body {
				walkS(b)
			}
		case *minipy.With:
			for _, it := range t.Items {
				walkE(it.Context)
				walkE(it.Vars)
			}
			for _, b := range t.Body {
				walkS(b)
			}
		case *minipy.Try:
			for _, b := range t.Body {
				walkS(b)
			}
			for _, h := range t.Handlers {
				walkE(h.Type)
				for _, b := range h.Body {
					walkS(b)
				}
			}
			for _, b := range t.Final {
				walkS(b)
			}
		case *minipy.Raise:
			walkE(t.Exc)
		case *minipy.Assert:
			walkE(t.Test)
			walkE(t.Msg)
		case *minipy.Del:
			for _, tgt := range t.Targets {
				walkE(tgt)
			}
		case *minipy.FuncDef:
			for _, b := range t.Body {
				walkS(b)
			}
		case *minipy.Global:
			for _, n := range t.Names {
				out[n] = true
			}
		case *minipy.Nonlocal:
			for _, n := range t.Names {
				out[n] = true
			}
		}
	}
	walkS(s)
	return out
}

func collectNamesExpr(e minipy.Expr) map[string]bool {
	out := make(map[string]bool)
	var walk func(minipy.Expr)
	walk = func(e minipy.Expr) {
		if e == nil {
			return
		}
		switch t := e.(type) {
		case *minipy.Name:
			out[t.ID] = true
		case *minipy.BinOp:
			walk(t.L)
			walk(t.R)
		case *minipy.BoolOp:
			for _, v := range t.Values {
				walk(v)
			}
		case *minipy.UnaryOp:
			walk(t.X)
		case *minipy.Compare:
			walk(t.L)
			for _, r := range t.Rights {
				walk(r)
			}
		case *minipy.Call:
			walk(t.Fn)
			for _, a := range t.Args {
				walk(a)
			}
			for i := range t.Keywords {
				walk(t.Keywords[i].Value)
			}
		case *minipy.Attribute:
			walk(t.X)
		case *minipy.Index:
			walk(t.X)
			walk(t.I)
		case *minipy.SliceExpr:
			walk(t.X)
			walk(t.Lo)
			walk(t.Hi)
			walk(t.Step)
		case *minipy.ListLit:
			for _, el := range t.Elts {
				walk(el)
			}
		case *minipy.TupleLit:
			for _, el := range t.Elts {
				walk(el)
			}
		case *minipy.DictLit:
			for i := range t.Keys {
				walk(t.Keys[i])
				walk(t.Vals[i])
			}
		case *minipy.SetLit:
			for _, el := range t.Elts {
				walk(el)
			}
		case *minipy.IfExp:
			walk(t.Cond)
			walk(t.Then)
			walk(t.Else)
		case *minipy.Lambda:
			walk(t.Body)
			for _, p := range t.Params {
				if p.Default != nil {
					walk(p.Default)
				}
			}
		}
	}
	walk(e)
	return out
}
