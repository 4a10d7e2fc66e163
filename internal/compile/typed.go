package compile

import "github.com/omp4go/omp4go/internal/minipy"

// valType is the small type lattice of the CompiledDT specializer:
// unknown < int, float < boxed. join(int, float) = float (numeric
// promotion); anything joined with boxed stays boxed.
type valType int

const (
	tUnknown valType = iota
	tInt
	tFloat
	tBoxed
)

func (t valType) String() string {
	return [...]string{"unknown", "int", "float", "object"}[t]
}

func joinTypes(a, b valType) valType {
	if a == b {
		return a
	}
	if a == tUnknown {
		return b
	}
	if b == tUnknown {
		return a
	}
	if (a == tInt && b == tFloat) || (a == tFloat && b == tInt) {
		return tFloat
	}
	return tBoxed
}

// typeEnv is the typing of one function of a def tree. A declared type
// belongs to a binding — the function that owns the name, and the name
// — not to the function body that happens to hold a statement: own has
// the type of every binding this function owns (tUnknown until a store
// or annotation says more), and a name a function only reads or
// declares nonlocal is typed by the function around it that owns it.
type typeEnv struct {
	parent *typeEnv
	scope  *minipy.ScopeInfo
	own    map[string]valType
	kids   map[*minipy.FuncDef]*typeEnv
}

func newTypeEnv(fd *minipy.FuncDef, parent *typeEnv) *typeEnv {
	t := &typeEnv{parent: parent, scope: minipy.AnalyzeScope(fd.Params, fd.Body), kids: map[*minipy.FuncDef]*typeEnv{}}
	t.own = make(map[string]valType, len(t.scope.Locals))
	for _, name := range t.scope.Locals {
		t.own[name] = tUnknown
	}
	return t
}

// binding finds the function that owns the binding name refers to from
// t, and the binding's type; the owner is nil for a module global or a
// builtin, and under a nil t, the typing of untyped mode.
func (t *typeEnv) binding(name string) (owner *typeEnv, vt valType) {
	for e := t; e != nil; e = e.parent {
		if vt, ok := e.own[name]; ok {
			return e, vt
		}
		if e.scope.Globals[name] {
			break
		}
	}
	return nil, tUnknown
}

// of is the type of the binding name refers to from t.
func (t *typeEnv) of(name string) valType {
	_, vt := t.binding(name)
	return vt
}

func isNumeric(vt valType) bool { return vt == tInt || vt == tFloat }

// inferTypes runs a fixed-point dataflow over an outermost function
// and every function nested in it: int/float annotations seed binding
// types, range loop variables are ints, and every assignment — in the
// owner's body or in a nested function that names the binding nonlocal
// — joins the assigned expression's static type into the binding.
// Bindings that end boxed (or conflicted) stay on the boxed path.
//
// One statement is trusted beyond what the types prove: the declaration
// "x: int = e" / "x: float = e" whose initializer has no static type
// only because it reads list elements or untyped names of an enclosing
// scope (numericSource). Like a Cython cdef, x keeps its declared type
// and the store coerces the value or raises TypeError. Any other untyped
// value — a call result, None, a generic for target, a plain assignment
// — still boxes the variable.
func inferTypes(fd *minipy.FuncDef) *typeEnv {
	root := newTypeEnv(fd, nil)
	// Iterate to the fixed point: a pass that changes anything moves a
	// binding up a lattice of height 3, so a few passes suffice.
	for changed := true; changed; {
		changed = false
		root.scan(fd, &changed)
	}
	return root
}

// join joins vt into the binding name refers to from t.
func (t *typeEnv) join(name string, vt valType, changed *bool) {
	if o, was := t.binding(name); o != nil && joinTypes(was, vt) != was {
		o.own[name] = joinTypes(was, vt)
		*changed = true
	}
}

// annotate joins name's annotation in and reports whether that
// declared it int or float.
func (t *typeEnv) annotate(name string, ann minipy.Expr, changed *bool) bool {
	n, ok := ann.(*minipy.Name)
	switch {
	case !ok:
		return false
	case n.ID == "int":
		t.join(name, tInt, changed)
	case n.ID == "float":
		t.join(name, tFloat, changed)
	default:
		t.join(name, tBoxed, changed)
		return false
	}
	return true
}

// scan is one pass over fd, whose typing t is, and the functions
// nested in it.
func (t *typeEnv) scan(fd *minipy.FuncDef, changed *bool) {
	for _, p := range fd.Params {
		if p.Annotation != nil {
			t.annotate(p.Name, p.Annotation, changed)
		}
	}
	t.scanStmts(fd.Body, changed)
}

func (t *typeEnv) scanStmts(body []minipy.Stmt, changed *bool) {
	for _, s := range body {
		switch s := s.(type) {
		case *minipy.AnnAssign:
			if n, ok := s.Target.(*minipy.Name); ok {
				numeric := t.annotate(n.ID, s.Annotation, changed)
				if s.Value == nil {
					continue
				}
				vt := exprType(s.Value, t)
				if vt == tBoxed && numeric && numericSource(s.Value, t) {
					continue // the declaration is trusted
				}
				t.join(n.ID, vt, changed)
			}
		case *minipy.Assign:
			vt := exprType(s.Value, t)
			for _, tgt := range s.Targets {
				if n, ok := tgt.(*minipy.Name); ok {
					t.join(n.ID, vt, changed)
				}
			}
		case *minipy.AugAssign:
			if n, ok := s.Target.(*minipy.Name); ok {
				t.join(n.ID, binOpType(s.Op, t.of(n.ID), exprType(s.Value, t)), changed)
			}
		case *minipy.For:
			if n, ok := s.Target.(*minipy.Name); ok && isRangeCall(s.Iter) {
				t.join(n.ID, tInt, changed)
			} else {
				// Generic iteration and tuple targets stay boxed.
				t.markBoxed(s.Target, changed)
			}
			t.scanStmts(s.Body, changed)
		case *minipy.If:
			t.scanStmts(s.Body, changed)
			t.scanStmts(s.Else, changed)
		case *minipy.While:
			t.scanStmts(s.Body, changed)
		case *minipy.With:
			t.scanStmts(s.Body, changed)
		case *minipy.Try:
			t.scanStmts(s.Body, changed)
			for _, h := range s.Handlers {
				t.join(h.Name, tBoxed, changed)
				t.scanStmts(h.Body, changed)
			}
			t.scanStmts(s.Final, changed)
		case *minipy.FuncDef:
			t.join(s.Name, tBoxed, changed)
			kid := t.kids[s]
			if kid == nil {
				kid = newTypeEnv(s, t)
				t.kids[s] = kid
			}
			kid.scan(s, changed)
		case *minipy.Del:
			for _, tgt := range s.Targets {
				t.markBoxed(tgt, changed)
			}
		}
	}
}

// numericSource reports whether e, which has no static type, is built
// only from what a well-typed numeric program makes numbers of: list
// elements, names of enclosing scopes, typed locals and literals,
// combined by arithmetic. A call, None or a boxed local is not.
func numericSource(e minipy.Expr, types *typeEnv) bool {
	switch t := e.(type) {
	case *minipy.IntLit, *minipy.FloatLit:
		return true
	case *minipy.Name:
		return !types.scope.IsLocal(t.ID) || isNumeric(types.of(t.ID))
	case *minipy.Index:
		_, ok := t.X.(*minipy.Name)
		return ok
	case *minipy.UnaryOp:
		return t.Op != "not" && numericSource(t.X, types)
	case *minipy.BinOp:
		return numericSource(t.L, types) && numericSource(t.R, types)
	}
	return false
}

func (t *typeEnv) markBoxed(e minipy.Expr, changed *bool) {
	switch e := e.(type) {
	case *minipy.Name:
		t.join(e.ID, tBoxed, changed)
	case *minipy.TupleLit:
		for _, el := range e.Elts {
			t.markBoxed(el, changed)
		}
	case *minipy.ListLit:
		for _, el := range e.Elts {
			t.markBoxed(el, changed)
		}
	}
}

func isRangeCall(e minipy.Expr) bool {
	call, ok := e.(*minipy.Call)
	if !ok {
		return false
	}
	n, ok := call.Fn.(*minipy.Name)
	return ok && n.ID == "range"
}

// mathFloatFns are math-module functions known to return float.
var mathFloatFns = map[string]bool{
	"sqrt": true, "sin": true, "cos": true, "tan": true, "exp": true,
	"log": true, "log2": true, "log10": true, "fabs": true, "pow": true,
	"atan": true, "atan2": true, "asin": true, "acos": true, "fmod": true,
}

// exprType computes the static type of an expression under the
// current variable typing.
func exprType(e minipy.Expr, types *typeEnv) valType {
	switch t := e.(type) {
	case *minipy.IntLit:
		return tInt
	case *minipy.FloatLit:
		return tFloat
	case *minipy.Name:
		if vt := types.of(t.ID); vt != tUnknown {
			return vt
		}
		return tBoxed
	case *minipy.BinOp:
		return binOpType(t.Op, exprType(t.L, types), exprType(t.R, types))
	case *minipy.UnaryOp:
		switch t.Op {
		case "-", "+":
			xt := exprType(t.X, types)
			if xt == tInt || xt == tFloat {
				return xt
			}
		case "~":
			if exprType(t.X, types) == tInt {
				return tInt
			}
		}
		return tBoxed
	case *minipy.IfExp:
		return joinTypes(exprType(t.Then, types), exprType(t.Else, types))
	case *minipy.Call:
		switch fn := t.Fn.(type) {
		case *minipy.Name:
			switch fn.ID {
			case "int", "len", "ord":
				return tInt
			case "float":
				return tFloat
			case "abs":
				if len(t.Args) == 1 {
					at := exprType(t.Args[0], types)
					if at == tInt || at == tFloat {
						return at
					}
				}
			case "min", "max":
				if len(t.Args) >= 2 {
					out := tUnknown
					for _, a := range t.Args {
						out = joinTypes(out, exprType(a, types))
					}
					if out == tInt || out == tFloat {
						return out
					}
				}
			}
		case *minipy.Attribute:
			if base, ok := fn.X.(*minipy.Name); ok && base.ID == "math" && mathFloatFns[fn.Name] {
				return tFloat
			}
		}
		return tBoxed
	}
	return tBoxed
}

// binOpType gives the result type of an arithmetic operator. Two
// Python facts make the float rules strong: true division always
// yields a float (or raises TypeError), and arithmetic with a float
// operand yields a float (or raises TypeError) — so a float operand
// pins the result type even when the other side is unknown. This is
// what keeps `s += a[i] * x[j]` on the unboxed path when s is
// annotated float but list elements are statically untyped.
func binOpType(op string, l, r valType) valType {
	switch op {
	case "/":
		return tFloat // numeric-or-TypeError in Python
	case "+", "-", "*", "//", "%", "**":
		if l == tFloat || r == tFloat {
			return tFloat
		}
		if l == tInt && r == tInt {
			if op == "**" {
				// int ** int may produce a float for negative
				// exponents; stay boxed.
				return tBoxed
			}
			return tInt
		}
		return tBoxed
	case "&", "|", "^", "<<", ">>":
		if l == tInt && r == tInt {
			return tInt
		}
		return tBoxed
	}
	return tBoxed
}
