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
		return func(fr *Frame, v interp.Value) error {
			if !fr.storeBinding(ref, v) {
				return interp.NewPyError("TypeError", "variable '"+name+"' is typed "+ref.typ.String(), minipy.Position{})
			}
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
// cells so closures share them): every name mentioned inside one, at
// any depth.
func nestedReferences(body []minipy.Stmt) map[string]bool {
	out := make(map[string]bool)
	for _, s := range body {
		minipy.Inspect(s, func(n minipy.Node) bool {
			switch t := n.(type) {
			case *minipy.FuncDef:
				for _, b := range t.Body {
					minipy.Names(b, out)
				}
			case *minipy.Lambda:
				minipy.Names(t.Body, out)
			}
			// Decorators and defaults evaluate in the enclosing scope and
			// count only for what is nested inside them; the traversal
			// goes on into them, and again into the body just collected.
			return true
		})
	}
	return out
}
